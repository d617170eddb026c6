package bench

import (
	"bytes"
	"reflect"
	"testing"

	"gpufpx/internal/cc"
	"gpufpx/internal/cuda"
	"gpufpx/internal/fpx"
	"gpufpx/internal/progs"
)

// analyzerObservation is everything one analyzer run reports for a program:
// the capped event stream, the uncapped aggregate stats, the textual report
// (per-event lines plus the OnExit summary and hottest-site digest), and the
// simulated cycle count.
type analyzerObservation struct {
	events []fpx.FlowEvent
	stats  fpx.AnalyzerStats
	report string
	cycles uint64
	err    error
}

func observeAnalyzer(p progs.Program) analyzerObservation {
	var buf bytes.Buffer
	ctx := cuda.NewContext()
	cfg := fpx.DefaultAnalyzerConfig()
	cfg.Output = &buf
	an := fpx.AttachAnalyzer(ctx, cfg)
	if err := p.Run(progs.NewRunContext(ctx, cc.Options{})); err != nil {
		return analyzerObservation{err: err}
	}
	ctx.Exit()
	return analyzerObservation{
		events: an.Events(),
		stats:  an.Stats(),
		report: buf.String(),
		cycles: ctx.Dev.Cycles,
	}
}

// observeCorpusAnalyzer runs the analyzer over a program list in parallel
// under the process-default executor.
func observeCorpusAnalyzer(ps []progs.Program) []analyzerObservation {
	out := make([]analyzerObservation, len(ps))
	forEach(len(ps), func(i int) { out[i] = observeAnalyzer(ps[i]) })
	return out
}

func diffAnalyzerObs(t *testing.T, ps []progs.Program, want, got []analyzerObservation, label string) {
	t.Helper()
	for i := range ps {
		w, g := want[i], got[i]
		if (w.err == nil) != (g.err == nil) {
			t.Errorf("%s: %s: run errors differ: %v vs %v", label, ps[i].Name, w.err, g.err)
			continue
		}
		if w.err != nil {
			continue
		}
		if w.cycles != g.cycles {
			t.Errorf("%s: %s: cycles %d vs %d", label, ps[i].Name, w.cycles, g.cycles)
		}
		if w.stats != g.stats {
			t.Errorf("%s: %s: analyzer stats differ:\n want: %+v\n got:  %+v",
				label, ps[i].Name, w.stats, g.stats)
		}
		if !reflect.DeepEqual(w.events, g.events) {
			t.Errorf("%s: %s: flow event streams differ (%d vs %d events)",
				label, ps[i].Name, len(w.events), len(g.events))
		}
		if w.report != g.report {
			t.Errorf("%s: %s: analyzer report text differs", label, ps[i].Name)
		}
	}
}

// TestAnalyzerDifferentialFullCorpus is the analyzer lowering pass's
// correctness contract: for every corpus program, the per-site compiled
// instrumentation must observe the exact event stream, aggregate stats,
// report bytes and cycle counts the interpretive executor observes. Lowering
// the injected bodies changes how fast the host classifies — never which
// exceptional flows the tool reports.
func TestAnalyzerDifferentialFullCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-corpus analyzer differential in -short mode")
	}
	ps := progs.All()

	useTier(t, "interp")
	interp := observeCorpusAnalyzer(ps)

	useTier(t, "fused")
	fused := observeCorpusAnalyzer(ps)

	diffAnalyzerObs(t, ps, interp, fused, "analyzer interp vs fused")
}

// TestAnalyzerDifferentialSubset is the fast cross-section that still runs
// in -short and -race CI passes.
func TestAnalyzerDifferentialSubset(t *testing.T) {
	ps := detSubset()
	setWorkers(t, 8)

	useTier(t, "interp")
	interp := observeCorpusAnalyzer(ps)

	useTier(t, "fused")
	fused := observeCorpusAnalyzer(ps)

	diffAnalyzerObs(t, ps, interp, fused, "analyzer subset")
}

// TestAnalyzerArtifactsDifferential renders the two analyzer-driven bench
// artifacts — Table 7 and the Figure 2 two-phase workflow — under both
// executors and requires byte-identical output. Both renders measure their
// own runs: a published evaluation would serve them the same results.
func TestAnalyzerArtifactsDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping analyzer artifact differential in -short mode")
	}
	withoutPlan(t)
	render := func() []byte {
		var buf bytes.Buffer
		Table7(&buf)
		TwoPhase(&buf, nil)
		return buf.Bytes()
	}

	useTier(t, "interp")
	interp := render()

	useTier(t, "fused")
	fused := render()

	if !bytes.Equal(interp, fused) {
		t.Errorf("Table 7 / two-phase artifacts differ between executors")
	}
}
