package gpufpx

// Streaming contract tests: RunStream's concatenated fragments must
// byte-equal the synchronous report body for every corpus program under
// both streaming tools, and the batch entry point must produce reports
// byte-identical to serial Runs regardless of worker count.

import (
	"bytes"
	"context"
	"sync"
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

// TestRunBatchMatchesSerial: batch results are byte-identical to serial
// Runs in item order, at every worker count.
func TestRunBatchMatchesSerial(t *testing.T) {
	names := []string{"myocyte", "GRAMSCHM", "HPCG", "libor", "SRU-Example"}
	s := New()
	var want [][]byte
	for _, n := range names {
		rep, err := s.Run(context.Background(), Program(n))
		if err != nil {
			t.Fatalf("serial Run(%s): %v", n, err)
		}
		want = append(want, rep.ToolBody())
	}
	items := make([]BatchItem, len(names))
	for i, n := range names {
		items[i] = BatchItem{Session: s, Source: Program(n)}
	}
	for _, workers := range []int{1, 3, 8} {
		res := RunBatch(context.Background(), items, workers)
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("workers=%d item %d (%s): %v", workers, i, names[i], r.Err)
			}
			if !bytes.Equal(r.Report.ToolBody(), want[i]) {
				t.Errorf("workers=%d item %d (%s): batch report differs from serial", workers, i, names[i])
			}
		}
	}
}

// TestRunBatchStreamPerItemConcat: interleaved per-item fragments, once
// demultiplexed by item and concatenated, equal each item's sync body.
func TestRunBatchStreamPerItemConcat(t *testing.T) {
	names := []string{"myocyte", "GRAMSCHM", "libor"}
	s := New()
	items := make([]BatchItem, len(names))
	for i, n := range names {
		items[i] = BatchItem{Session: s, Source: Program(n)}
	}
	var mu sync.Mutex
	bufs := make([]bytes.Buffer, len(items))
	res := RunBatchStream(context.Background(), items, 3, func(item int, frag []byte) {
		mu.Lock()
		bufs[item].Write(frag)
		mu.Unlock()
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d (%s): %v", i, names[i], r.Err)
		}
		if !bytes.Equal(bufs[i].Bytes(), r.Report.ToolBody()) {
			t.Errorf("item %d (%s): demuxed stream differs from report body", i, names[i])
		}
	}
}
