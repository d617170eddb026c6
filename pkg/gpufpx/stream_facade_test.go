package gpufpx

// Streaming contract tests: RunStream's concatenated fragments must
// byte-equal the synchronous report body for every corpus program under
// both streaming tools.

import (
	"bytes"
	"context"
	"testing"
)

// TestRunStreamMatchesSyncFullCorpus is the acceptance-criterion pin:
// streamed record bytes, concatenated, are identical to the synchronous
// report body — over the full corpus, detector and analyzer.
func TestRunStreamMatchesSyncFullCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus sweep")
	}
	tools := map[string]func() *Session{
		"detector": func() *Session { return New() },
		"analyzer": func() *Session { return New(WithTool(Analyzer(DefaultAnalyzerConfig()))) },
	}
	for toolName, mk := range tools {
		toolName, mk := toolName, mk
		t.Run(toolName, func(t *testing.T) {
			t.Parallel()
			for _, p := range Programs() {
				syncRep, err := mk().Run(context.Background(), Program(p.Name))
				if err != nil {
					t.Fatalf("%s sync Run(%s): %v", toolName, p.Name, err)
				}
				var streamed bytes.Buffer
				frags := 0
				streamRep, err := mk().RunStream(context.Background(), Program(p.Name), func(b []byte) {
					frags++
					streamed.Write(b)
				})
				if err != nil {
					t.Fatalf("%s RunStream(%s): %v", toolName, p.Name, err)
				}
				want := syncRep.ToolBody()
				if want == nil {
					t.Fatalf("%s Run(%s): no tool body", toolName, p.Name)
				}
				if !bytes.Equal(streamed.Bytes(), want) {
					t.Errorf("%s %s: streamed body (%d frags) differs from sync body:\n--- streamed ---\n%s\n--- sync ---\n%s",
						toolName, p.Name, frags, streamed.Bytes(), want)
				}
				if got := streamRep.ToolBody(); !bytes.Equal(got, want) {
					t.Errorf("%s %s: RunStream's own report differs from sync report", toolName, p.Name)
				}
			}
		})
	}
}

// TestRunStreamEmitsIncrementally checks a record-bearing program streams
// more than one fragment — the body is not just buffered and dumped whole.
func TestRunStreamEmitsIncrementally(t *testing.T) {
	frags := 0
	rep, err := New().RunStream(context.Background(), Program("myocyte"), func([]byte) { frags++ })
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.Detector.Records); n == 0 {
		t.Fatal("myocyte produced no records; test subject invalid")
	}
	if frags != len(rep.Detector.Records)+1 {
		t.Fatalf("want %d fragments (one per record + tail), got %d", len(rep.Detector.Records)+1, frags)
	}
}

// TestRunStreamNonStreamingTool: tools without a record array emit no
// fragments but still return the normal report.
func TestRunStreamNonStreamingTool(t *testing.T) {
	frags := 0
	rep, err := New(WithTool(Plain())).RunStream(context.Background(), Program("GRAMSCHM"), func([]byte) { frags++ })
	if err != nil {
		t.Fatal(err)
	}
	if frags != 0 {
		t.Fatalf("plain tool streamed %d fragments, want 0", frags)
	}
	if rep.Tool != "plain" || rep.Launches == 0 {
		t.Fatalf("plain report malformed: %+v", rep)
	}
}
