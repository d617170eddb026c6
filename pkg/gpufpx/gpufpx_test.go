package gpufpx

// Facade contract tests: Session.Run must be byte-identical to driving the
// internal packages directly (the pre-facade CLI path), the error taxonomy
// must classify by type, and sources must validate before any device is
// built.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"gpufpx/internal/cuda"
	"gpufpx/internal/device"
	"gpufpx/internal/fpx"
	"gpufpx/internal/progs"
)

// goldenPrograms spans the corpus suites: an ECP proxy app, a GPGPU-Sim
// kernel, the HPC benchmark, an ML open issue and a parboil program.
var goldenPrograms = []string{"myocyte", "GRAMSCHM", "HPCG", "libor", "SRU-Example"}

// directDetectorJSON is the pre-facade detector path: internal context,
// attached tool, program run, WriteJSON.
func directDetectorJSON(t *testing.T, name string) []byte {
	t.Helper()
	p, err := progs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext()
	det := fpx.AttachDetector(ctx, fpx.DefaultDetectorConfig())
	if err := p.Run(progs.NewRunContext(ctx, CompileOptions{})); err != nil {
		t.Fatal(err)
	}
	ctx.Exit()
	var buf bytes.Buffer
	if err := det.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// directAnalyzerJSON is the analyzer twin of directDetectorJSON.
func directAnalyzerJSON(t *testing.T, name string) []byte {
	t.Helper()
	p, err := progs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext()
	ana := fpx.AttachAnalyzer(ctx, fpx.DefaultAnalyzerConfig())
	if err := p.Run(progs.NewRunContext(ctx, CompileOptions{})); err != nil {
		t.Fatal(err)
	}
	ctx.Exit()
	var buf bytes.Buffer
	if err := ana.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSessionRunMatchesDirectDetectorPath(t *testing.T) {
	for _, name := range goldenPrograms {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep, err := New().Run(context.Background(), Program(name))
			if err != nil {
				t.Fatalf("Run(%s): %v", name, err)
			}
			if rep.Detector == nil {
				t.Fatal("detector session returned no detector report")
			}
			var got bytes.Buffer
			if err := rep.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			want := directDetectorJSON(t, name)
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("facade JSON differs from the direct path:\n--- facade ---\n%s\n--- direct ---\n%s", got.Bytes(), want)
			}
			if rep.Cycles == 0 || rep.Launches == 0 {
				t.Errorf("report missing run accounting: cycles=%d launches=%d", rep.Cycles, rep.Launches)
			}
		})
	}
}

func TestSessionRunMatchesDirectAnalyzerPath(t *testing.T) {
	for _, name := range []string{"myocyte", "GRAMSCHM"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep, err := New(WithTool(Analyzer(DefaultAnalyzerConfig()))).Run(context.Background(), Program(name))
			if err != nil {
				t.Fatalf("Run(%s): %v", name, err)
			}
			if rep.Analyzer == nil {
				t.Fatal("analyzer session returned no analyzer report")
			}
			var got bytes.Buffer
			if err := rep.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if want := directAnalyzerJSON(t, name); !bytes.Equal(got.Bytes(), want) {
				t.Errorf("facade analyzer JSON differs from the direct path:\n--- facade ---\n%s\n--- direct ---\n%s", got.Bytes(), want)
			}
		})
	}
}

func TestReportsCarryCurrentSchema(t *testing.T) {
	rep, err := New().Run(context.Background(), Program("myocyte"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detector.Schema != DetectorSchemaVersion {
		t.Errorf("detector schema = %d, want %d", rep.Detector.Schema, DetectorSchemaVersion)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDetectorReport(&buf)
	if err != nil {
		t.Fatalf("round-trip load: %v", err)
	}
	if loaded.Schema != DetectorSchemaVersion {
		t.Errorf("round-tripped schema = %d, want %d", loaded.Schema, DetectorSchemaVersion)
	}
	// A future major must be refused with the typed sentinel.
	if _, err := LoadDetectorReport(strings.NewReader(`{"schema": 99}`)); !errors.Is(err, ErrSchema) {
		t.Errorf("schema-99 load: err = %v, want ErrSchema", err)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	classify := func(err error) (ErrorKind, bool) {
		var ge *Error
		ok := errors.As(err, &ge)
		if !ok {
			return KindInternal, false
		}
		return ge.Kind, true
	}

	if _, err := New().Run(context.Background(), Program("no-such-program")); err == nil {
		t.Error("unknown program ran")
	} else if k, ok := classify(err); !ok || k != KindUnknownProgram {
		t.Errorf("unknown program: kind=%v typed=%v, want KindUnknownProgram", k, ok)
	}

	if _, err := New().Run(context.Background(), FixedProgram("myocyte")); err == nil {
		// myocyte has no repaired variant in the corpus.
		t.Error("fixed variant of a program without one ran")
	} else if k, _ := classify(err); k != KindUnknownProgram {
		t.Errorf("missing fixed variant: kind=%v, want KindUnknownProgram", k)
	}

	if _, err := New().Run(context.Background(), SASSText("bad.sass", "NOT AN OPCODE ;\n", 1, 32)); err == nil {
		t.Error("unparseable SASS ran")
	} else if k, _ := classify(err); k != KindBadSource {
		t.Errorf("bad SASS: kind=%v, want KindBadSource", k)
	}

	if _, err := New().Run(context.Background(), SASSText("geom.sass", "EXIT ;\n", 0, 32)); err == nil {
		t.Error("zero grid ran")
	} else if k, _ := classify(err); k != KindBadSource {
		t.Errorf("bad geometry: kind=%v, want KindBadSource", k)
	}

	// A one-instruction budget trips ErrBudget on any real program; the
	// sentinel must stay reachable through the wrapper.
	rep, err := New(WithCycleBudget(1)).Run(context.Background(), Program("myocyte"))
	if err == nil {
		t.Fatal("1-instruction budget did not abort the run")
	}
	if k := Classify(err); k != KindBudget {
		t.Errorf("budget abort: kind=%v, want KindBudget", k)
	}
	if !errors.Is(err, device.ErrBudget) {
		t.Error("device.ErrBudget not reachable through the typed wrapper")
	}
	if rep == nil {
		t.Error("failed run should still return its partial report")
	}

	if k := Classify(errors.New("anything else")); k != KindInternal {
		t.Errorf("unclassified error: kind=%v, want KindInternal", k)
	}
	if got := KindHang.String(); got != "hang" {
		t.Errorf(`KindHang.String() = %q, want "hang"`, got)
	}
}

func TestCycleBudgetAllowsCompleteRuns(t *testing.T) {
	// A generous budget must not perturb the run at all.
	rep, err := New(WithCycleBudget(1<<30)).Run(context.Background(), Program("GRAMSCHM"))
	if err != nil {
		t.Fatalf("generous budget failed the run: %v", err)
	}
	unbounded, err := New().Run(context.Background(), Program("GRAMSCHM"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != unbounded.Cycles {
		t.Errorf("budgeted run cycles = %d, unbounded = %d; budget must be free when unhit", rep.Cycles, unbounded.Cycles)
	}
}

func TestSessionIsReusableAndDeterministic(t *testing.T) {
	s := New()
	a, err := s.Run(context.Background(), Program("myocyte"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(context.Background(), Program("myocyte"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Summary != b.Summary {
		t.Errorf("two runs of one session diverged: %d/%v vs %d/%v", a.Cycles, a.Summary, b.Cycles, b.Summary)
	}
}

func TestProgramInventory(t *testing.T) {
	ps := Programs()
	if len(ps) < 30 {
		t.Fatalf("corpus has %d programs, want the full inventory", len(ps))
	}
	byName := map[string]ProgramInfo{}
	for _, p := range ps {
		byName[p.Name] = p
	}
	for _, name := range goldenPrograms {
		if _, ok := byName[name]; !ok {
			t.Errorf("golden program %s missing from inventory", name)
		}
	}
	if !byName["libor"].Meaningless {
		t.Error("libor must carry the footnote-8 flag")
	}
	if len(Suites()) == 0 {
		t.Error("no suites listed")
	}
	for _, suite := range Suites() {
		if len(ProgramsBySuite(suite)) == 0 {
			t.Errorf("suite %s lists no programs", suite)
		}
	}
}
