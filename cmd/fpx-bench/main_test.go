package main

import (
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// TestPrintCompareRejectsNonPerfRecords feeds -compare every committed
// record: the perf record (BENCH_4) must render, while the fleet, block-
// parallel and campaign records (BENCH_5, 6, 7) carry no artifact timings
// and must be refused instead of read as an empty baseline.
func TestPrintCompareRejectsNonPerfRecords(t *testing.T) {
	rec := &perfRecord{
		ExecMode:    "fused",
		Artifacts:   []artifactTiming{{Name: "table7", WallMS: 1}},
		TotalWallMS: 1,
	}
	var out strings.Builder
	if err := printCompare(&out, filepath.Join("..", "..", "BENCH_4.json"), rec); err != nil {
		t.Fatalf("BENCH_4: %v", err)
	}
	if !strings.Contains(out.String(), "table7") {
		t.Errorf("BENCH_4 comparison lacks the artifact row:\n%s", out.String())
	}
	for _, n := range []string{"5", "6", "7"} {
		path := filepath.Join("..", "..", "BENCH_"+n+".json")
		err := printCompare(io.Discard, path, rec)
		if err == nil || !strings.Contains(err.Error(), "not a perf record") {
			t.Errorf("BENCH_%s: err = %v, want a not-a-perf-record error", n, err)
		}
	}
}
