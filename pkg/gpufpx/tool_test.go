package gpufpx

// Tool-selection contract tests: WithTool is the single tool surface, the
// last tool option in the option list always wins, and a shadow session is
// byte-identical to driving the internal sanitizer directly.

import (
	"bytes"
	"context"
	"testing"

	"gpufpx/internal/cuda"
	"gpufpx/internal/fpx"
	"gpufpx/internal/progs"
)

func TestWithToolPrecedenceMatrix(t *testing.T) {
	det := Detector(DefaultDetectorConfig())
	ana := Analyzer(DefaultAnalyzerConfig())
	sha := Shadow(DefaultShadowConfig())
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"zero session is the detector", nil, "detector"},
		{"single WithTool", []Option{WithTool(ana)}, "analyzer"},
		{"last WithTool wins", []Option{WithTool(det), WithTool(sha)}, "shadow"},
		{"three in a row", []Option{WithTool(sha), WithTool(ana), WithTool(BinFPE())}, "binfpe"},
		{"unrelated options do not reset the tool", []Option{
			WithTool(sha), WithFreq(4), WithVerbose(true), WithCycleBudget(1 << 20),
		}, "shadow"},
	}
	for _, tc := range cases {
		if got := New(tc.opts...).tool.String(); got != tc.want {
			t.Errorf("%s: session tool = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestWithToolKeepsLastConfigPerTool(t *testing.T) {
	loose := DefaultShadowConfig()
	strict := DefaultShadowConfig()
	strict.SigBits = 4
	strict.CancelBits = 30
	// The strict shadow config is set, displaced by another tool, then the
	// shadow is re-selected with a different config: the session must hold
	// the config of the *last* shadow selection, not the first.
	s := New(WithTool(Shadow(strict)), WithTool(Detector(DefaultDetectorConfig())), WithTool(Shadow(loose)))
	if s.tool.String() != "shadow" {
		t.Fatalf("session tool = %s, want shadow", s.tool)
	}
	if s.shaCfg.SigBits != loose.SigBits || s.shaCfg.CancelBits != loose.CancelBits {
		t.Errorf("shadow config = %+v, want the last-selected %+v", s.shaCfg, loose)
	}
	// Config-less selections (BinFPE, Memcheck, Plain) must not clobber a
	// configured tool's stored config.
	s2 := New(WithTool(Shadow(strict)), WithTool(Plain()))
	if s2.tool.String() != "plain" {
		t.Fatalf("session tool = %s, want plain", s2.tool)
	}
	if s2.shaCfg.SigBits != strict.SigBits {
		t.Errorf("plain selection clobbered the stored shadow config: %+v", s2.shaCfg)
	}
}

func TestParseToolRoundTrip(t *testing.T) {
	for _, name := range ToolNames() {
		tool, err := ParseTool(name)
		if err != nil {
			t.Fatalf("ParseTool(%q): %v", name, err)
		}
		if tool.Name() != name {
			t.Errorf("ParseTool(%q).Name() = %q", name, tool.Name())
		}
	}
	if tool, err := ParseTool(""); err != nil || tool.Name() != "detector" {
		t.Errorf("ParseTool(\"\") = %q, %v; want the detector default", tool.Name(), err)
	}
	if _, err := ParseTool("sanitize"); err == nil {
		t.Error("ParseTool accepted an unknown tool name")
	}
}

// directShadowJSON is the pre-facade shadow path: internal context, attached
// sanitizer, program run, WriteJSON.
func directShadowJSON(t *testing.T, name string) []byte {
	t.Helper()
	p, err := progs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext()
	sha := fpx.AttachShadow(ctx, fpx.DefaultShadowConfig())
	if err := p.Run(progs.NewRunContext(ctx, CompileOptions{})); err != nil {
		t.Fatal(err)
	}
	ctx.Exit()
	var buf bytes.Buffer
	if err := sha.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSessionRunMatchesDirectShadowPath(t *testing.T) {
	// The precision suite plus one corpus program: the sources with real
	// shadow findings, resolved through the facade's by-name lookup.
	names := []string{"ill-sum", "quad-root", "variance-1pass", "myocyte"}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want := directShadowJSON(t, name)
			s := New(WithTool(Shadow(DefaultShadowConfig())))
			rep, err := s.Run(context.Background(), Program(name))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Tool != "shadow" || rep.Shadow == nil {
				t.Fatalf("report tool = %s, shadow report nil=%v", rep.Tool, rep.Shadow == nil)
			}
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("facade shadow JSON differs from the direct path")
			}
		})
	}
}
