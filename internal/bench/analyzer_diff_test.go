package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"gpufpx/internal/cc"
	"gpufpx/internal/cuda"
	"gpufpx/internal/fpx"
	"gpufpx/internal/progs"
)

// analyzerObservation is everything one analyzer run reports for a program:
// the capped event stream, the uncapped aggregate stats, the textual report
// (per-event lines plus the OnExit summary and hottest-site digest), the
// canonical JSON report and the simulated cycle count.
type analyzerObservation struct {
	events []fpx.FlowEvent
	stats  fpx.AnalyzerStats
	report string
	json   []byte
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
	var js bytes.Buffer
	if err := an.WriteJSON(&js); err != nil {
		return analyzerObservation{err: err}
	}
	return analyzerObservation{
		events: an.Events(),
		stats:  an.Stats(),
		report: buf.String(),
		json:   js.Bytes(),
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
		if !bytes.Equal(w.json, g.json) {
			t.Errorf("%s: %s: analyzer JSON report differs", label, ps[i].Name)
		}
	}
}

// reportDigest is the SHA-256 over every program's name, text report and
// JSON report, in list order: one number that changes when any report byte
// a tool prints or serializes changes.
func reportDigest(ps []progs.Program, report func(i int) (text string, js []byte, err error)) string {
	h := sha256.New()
	for i, p := range ps {
		text, js, err := report(i)
		if err != nil {
			text = "error: " + err.Error()
		}
		h.Write([]byte(p.Name + "\n"))
		h.Write([]byte(text))
		h.Write(js)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// analyzerCorpusDigest pins the production tier's analyzer reports, text
// and JSON, over the full corpus.
const analyzerCorpusDigest = "1ef431c75f10b22c6dc5f6e43d211678cf49e95096003d22f74f4da7b6db8f3c"

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

	got := reportDigest(ps, func(i int) (string, []byte, error) {
		return fused[i].report, fused[i].json, fused[i].err
	})
	if got != analyzerCorpusDigest {
		t.Errorf("analyzer corpus report digest = %s, want %s", got, analyzerCorpusDigest)
	}
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
