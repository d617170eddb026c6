package bench

import (
	"testing"

	"gpufpx/internal/device"
	"gpufpx/internal/progs"
)

// TestFusedDifferentialFullCorpus is the fusion pass's correctness contract:
// the whole corpus, run under the direct-threaded lowered executor and under
// the fused superinstruction executor, must agree on every simulated cycle
// count, every hang verdict and every exception summary, and render
// byte-identical artifacts. Fusion only changes how fast the host simulates —
// never what the device computes.
func TestFusedDifferentialFullCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-corpus fused differential sweep in -short mode")
	}
	ps := progs.All()

	useTier(t, "lowered")
	lowered := RunSweepOn(ps)
	if err := lowered.Err(); err != nil {
		t.Fatal(err)
	}

	useTier(t, "fused")
	fused := RunSweepOn(ps)
	if err := fused.Err(); err != nil {
		t.Fatal(err)
	}

	diffSweeps(t, ps, lowered, fused, "lowered vs fused")

	// The corpus carries exactly two hanging kernels (the infinite-loop and
	// barrier-deadlock programs); the watchdog verdicts must survive fusion.
	if got := fused.Hangs(); got != 2 {
		t.Errorf("fused sweep hangs = %d, want 2", got)
	}
}

// TestFusedDifferentialSubsetParallel is the fast cross-section of the fused
// differential contract that still runs in -short and -race CI passes: the
// determinism subset under both tiers at 8 workers, with each kernel's
// program shared between concurrent sweep goroutines.
func TestFusedDifferentialSubsetParallel(t *testing.T) {
	ps := detSubset()
	setWorkers(t, 8)

	useTier(t, "lowered")
	lowered := RunSweepOn(ps)
	if err := lowered.Err(); err != nil {
		t.Fatal(err)
	}

	useTier(t, "fused")
	fused := RunSweepOn(ps)
	if err := fused.Err(); err != nil {
		t.Fatal(err)
	}

	diffSweeps(t, ps, lowered, fused, "fused subset -j 8")
}

// TestAnalyzerDifferentialFused holds the fused tier to the analyzer's
// event-level contract: per-site injected calls must fire in the exact same
// order with the exact same operand views through fused region bodies, so
// the capped event stream, aggregate stats and report bytes match the
// lowered executor for every corpus program.
func TestAnalyzerDifferentialFused(t *testing.T) {
	ps := detSubset()
	setWorkers(t, 8)

	useTier(t, "lowered")
	lowered := observeCorpusAnalyzer(ps)

	useTier(t, "fused")
	fused := observeCorpusAnalyzer(ps)

	diffAnalyzerObs(t, ps, lowered, fused, "analyzer lowered vs fused")
}

// TestFusedStatsProgress sanity-checks the fusion counters: after a fused
// sweep the process-wide stats must report fused kernels, fused regions and
// fused instructions, or the tier silently fell back to lowered execution.
func TestFusedStatsProgress(t *testing.T) {
	ps := detSubset()
	useTier(t, "fused")

	s := RunSweepOn(ps)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	// Fused programs are cached process-wide, so earlier tests may already
	// have built them; the totals must be non-zero either way.
	after := device.FuseStatsSnapshot()
	if after.Kernels == 0 || after.Regions == 0 || after.FusedInstrs == 0 {
		t.Errorf("fused sweep fused nothing: %+v", after)
	}
}
