package bench

import (
	"bytes"
	"testing"

	"gpufpx/internal/progs"
)

// TestFigure6MemoizationExact proves the plan's sampling clamp: Figure 6
// rendered from the plan — each saturated (factor, program) pair mapped to
// one canonical run at the program's per-kernel launch bound — is
// byte-identical to Figure 6 rendered, through the same render function,
// from fresh unclamped runs of every (factor, program) pair. A clamp that
// ever maps a factor whose execution would have differed shows up here as
// a diff.
func TestFigure6MemoizationExact(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus figure; skipped in -short")
	}
	setWorkers(t, 8)
	plain := PlainRuns()

	var clamped bytes.Buffer
	Figure6(&clamped, nil, plain)

	ps := progs.All()
	runs := make([][]RunResult, len(figure6Ks))
	for ki := range runs {
		runs[ki] = make([]RunResult, len(ps))
	}
	forEach(len(figure6Ks)*len(ps), func(j int) {
		ki, i := j/len(ps), j%len(ps)
		runs[ki][i] = Run(ps[i], ToolFPX, Options{FreqRedn: figure6Ks[ki]})
	})
	var exh bytes.Buffer
	renderFigure6(&exh, ps, runs, plain)

	if clamped.String() != exh.String() {
		t.Errorf("clamped Figure 6 diverges from the exhaustive computation:\nclamped:\n%s\nexhaustive:\n%s",
			clamped.String(), exh.String())
	}
}
