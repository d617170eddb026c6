package bench

import (
	"bytes"
	"testing"

	"gpufpx/internal/cc"
	"gpufpx/internal/cuda"
	"gpufpx/internal/fpx"
	"gpufpx/internal/progs"
)

// These tests are the shadow sanitizer's correctness contract: the same
// workload must produce byte-identical shadow reports (text and JSON),
// stats and cycle counts under every executor — and the precision suite must be flagged by shadow while staying invisible
// to the detector and the analyzer.

// shadowObservation is everything one shadowed run externalizes.
type shadowObservation struct {
	err      error
	findings []fpx.Finding
	stats    fpx.ShadowStats
	report   string
	json     []byte
	cycles   uint64
}

// observeShadow runs one program under the shadow sanitizer.
func observeShadow(p progs.Program) shadowObservation {
	var buf bytes.Buffer
	ctx := cuda.NewContext()
	cfg := fpx.DefaultShadowConfig()
	cfg.Output = &buf
	sh := fpx.AttachShadow(ctx, cfg)
	if err := p.Run(progs.NewRunContext(ctx, cc.Options{})); err != nil {
		return shadowObservation{err: err}
	}
	ctx.Exit()
	rep := sh.ReportJSON()
	var js bytes.Buffer
	if err := fpx.EncodeReport(&js, &rep); err != nil {
		return shadowObservation{err: err}
	}
	return shadowObservation{
		findings: sh.Findings(),
		stats:    sh.Stats(),
		report:   buf.String(),
		json:     js.Bytes(),
		cycles:   ctx.Dev.Cycles,
	}
}

// diffShadowObs requires two observation sets over the same programs to be
// byte-identical in every externalized dimension.
func diffShadowObs(t *testing.T, ps []progs.Program, want, got []shadowObservation, label string) {
	t.Helper()
	for i, p := range ps {
		w, g := want[i], got[i]
		if (w.err == nil) != (g.err == nil) {
			t.Errorf("%s: %s: error mismatch: %v vs %v", label, p.Name, w.err, g.err)
			continue
		}
		if w.err != nil {
			continue
		}
		if w.cycles != g.cycles {
			t.Errorf("%s: %s: cycles %d vs %d", label, p.Name, w.cycles, g.cycles)
		}
		if w.stats != g.stats {
			t.Errorf("%s: %s: stats %+v vs %+v", label, p.Name, w.stats, g.stats)
		}
		if len(w.findings) != len(g.findings) {
			t.Errorf("%s: %s: %d findings vs %d", label, p.Name, len(w.findings), len(g.findings))
		} else {
			for j := range w.findings {
				if w.findings[j] != g.findings[j] {
					t.Errorf("%s: %s: finding %d differs:\n  %+v\n  %+v", label, p.Name, j, w.findings[j], g.findings[j])
					break
				}
			}
		}
		if w.report != g.report {
			t.Errorf("%s: %s: report text differs", label, p.Name)
		}
		if !bytes.Equal(w.json, g.json) {
			t.Errorf("%s: %s: JSON report differs", label, p.Name)
		}
	}
}

// shadowSubset is the fast shadow cross-section: the determinism subset
// plus the entire precision suite (whose findings are the interesting
// payload the contract protects).
func shadowSubset() []progs.Program {
	return append(detSubset(), progs.Precision()...)
}

// observeShadowAll observes every program through the worker pool.
func observeShadowAll(ps []progs.Program) []shadowObservation {
	out := make([]shadowObservation, len(ps))
	forEach(len(ps), func(i int) { out[i] = observeShadow(ps[i]) })
	return out
}

// TestShadowDifferentialSubset runs in -short and under the -race CI job:
// every executor, byte-identical shadow output.
func TestShadowDifferentialSubset(t *testing.T) {
	ps := shadowSubset()
	setWorkers(t, 4)
	var base []shadowObservation
	for _, em := range execModes {
		setExecMode(t, em.mode)
		got := observeShadowAll(ps)
		if base == nil {
			base = got
		} else {
			diffShadowObs(t, ps, base, got, "shadow interp vs "+em.name)
		}
	}
}

// TestShadowDifferentialFullCorpus is the acceptance gate: the full paper
// corpus plus the precision suite, all three executors.
func TestShadowDifferentialFullCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-corpus shadow differential in -short mode")
	}
	ps := append(progs.All(), progs.Precision()...)
	var base []shadowObservation
	for _, em := range execModes {
		setExecMode(t, em.mode)
		got := observeShadowAll(ps)
		if base == nil {
			base = got
		} else {
			diffShadowObs(t, ps, base, got, "shadow corpus interp vs "+em.name)
		}
	}
}

// TestPrecisionSuiteVerdicts pins the precision suite's reason to exist:
// the detector and the analyzer see nothing, the shadow sanitizer flags
// significance loss or cancellation, on every program.
func TestPrecisionSuiteVerdicts(t *testing.T) {
	for _, p := range progs.Precision() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			det := mustOK(Run(p, ToolFPX, Options{}))
			if n := det.Summary.Total(); n != 0 {
				t.Errorf("detector reports %d unique records, want clean", n)
			}
			ana := observeAnalyzer(p)
			if ana.err != nil {
				t.Fatalf("analyzer run: %v", ana.err)
			}
			if len(ana.events) != 0 {
				t.Errorf("analyzer reports %d events, want quiet", len(ana.events))
			}
			sh := observeShadow(p)
			if sh.err != nil {
				t.Fatalf("shadow run: %v", sh.err)
			}
			if len(sh.findings) == 0 {
				t.Fatalf("shadow reports no findings, want at least one")
			}
			for _, f := range sh.findings {
				if f.Kind == fpx.KindDivergence {
					t.Errorf("unexpected divergence finding: %+v", f)
				}
			}
		})
	}
}
