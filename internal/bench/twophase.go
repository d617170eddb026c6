package bench

import (
	"fmt"
	"io"

	"gpufpx/internal/cc"
	"gpufpx/internal/fpx"
	"gpufpx/internal/progs"
)

// TwoPhaseResult is one program run through the paper's Figure 2 workflow:
// the fast detector screens all kernels, then the slower analyzer is
// applied only to the kernels that showed exceptions.
type TwoPhaseResult struct {
	// DetectorCycles and AnalyzerCycles are the two phases' runtimes.
	DetectorCycles, AnalyzerCycles uint64
	// FullAnalyzerCycles is the cost of the naive alternative: analyzing
	// every kernel without screening.
	FullAnalyzerCycles uint64
	// FlaggedKernels are the kernels the detector implicated.
	FlaggedKernels []string
	// Records is the detector's finding count; Events the analyzer's.
	Records, Events int
	// Stats carries the analyzer's flow aggregates.
	Stats fpx.AnalyzerStats
}

// twoPhaseDefaults are the multi-kernel severe programs where screening
// pays off — TwoPhase's programs when none are named.
var twoPhaseDefaults = []string{"HPCG", "SRU-Example", "GRAMSCHM", "myocyte", "kmeans"}

// twoPhasePrograms resolves TwoPhase's program names, skipping unknown
// ones.
func twoPhasePrograms(names []string) []progs.Program {
	if len(names) == 0 {
		names = twoPhaseDefaults
	}
	return byNames(names)
}

// twoPhaseNeed declares the workflow's runs: the detector on the evaluation
// device (the sweep's GPU-FPX run at default options) and the unscreened
// analyzer; then, from the detector's records, the analyzer whitelisted to
// the flagged kernels.
func twoPhaseNeed(ps []progs.Program, opts cc.Options) need {
	n := need{derived: func(pl *plan) []keyed {
		var screened []keyed
		for _, p := range ps {
			if det := pl.result(p, keyOf(p, ToolFPX, Options{Compiler: opts})); det.Err == nil && len(det.Flagged) > 0 {
				screened = append(screened, keyed{p, analyzerKey(p, Options{Compiler: opts}, det.Flagged)})
			}
		}
		return screened
	}}
	for _, p := range ps {
		n.runs = append(n.runs,
			keyed{p, keyOf(p, ToolFPX, Options{Compiler: opts})},
			keyed{p, analyzerKey(p, Options{Compiler: opts}, nil)})
	}
	return n
}

// RunTwoPhase executes the detector-then-analyzer workflow of Figure 2 on
// one program and also measures the unscreened analyzer for comparison. It
// reads the current evaluation's runs (see RunSweep) and measures any that
// are missing.
func RunTwoPhase(p progs.Program, opts cc.Options) (TwoPhaseResult, error) {
	pl := currentPlan()
	pl.fill(twoPhaseNeed([]progs.Program{p}, opts))
	return twoPhaseFrom(pl, p, opts)
}

// twoPhaseFrom assembles one program's workflow result from the plan.
func twoPhaseFrom(pl *plan, p progs.Program, opts cc.Options) (TwoPhaseResult, error) {
	var res TwoPhaseResult
	o := Options{Compiler: opts}

	// Phase 1: the detector over everything.
	det := pl.result(p, keyOf(p, ToolFPX, o))
	if det.Err != nil {
		return res, fmt.Errorf("detector phase: %w", det.Err)
	}
	res.DetectorCycles = det.Cycles
	res.Records = det.Records
	res.FlaggedKernels = det.Flagged

	// Phase 2: the analyzer, whitelisted to the flagged kernels.
	if len(res.FlaggedKernels) > 0 {
		an := pl.result(p, analyzerKey(p, o, res.FlaggedKernels))
		if an.Err != nil {
			return res, fmt.Errorf("analyzer phase: %w", an.Err)
		}
		res.AnalyzerCycles = an.Cycles
		res.Events = an.Events
		res.Stats = an.Flow
	}

	// The naive alternative for comparison: analyze everything.
	full := pl.result(p, analyzerKey(p, o, nil))
	if full.Err != nil {
		return res, fmt.Errorf("full-analyzer run: %w", full.Err)
	}
	res.FullAnalyzerCycles = full.Cycles
	return res, nil
}

// TwoPhase prints the workflow comparison for a set of programs (defaults
// to the multi-kernel severe programs where screening pays off), in the
// given order. It reads the current evaluation's runs (see RunSweep) and
// measures any that are missing.
func TwoPhase(w io.Writer, names []string) []TwoPhaseResult {
	ps := twoPhasePrograms(names)
	pl := currentPlan()
	pl.fill(twoPhaseNeed(ps, cc.Options{}))
	var out []TwoPhaseResult
	fmt.Fprintln(w, "Figure 2 workflow: detector screening, then analyzer on flagged kernels")
	for _, p := range ps {
		res, err := twoPhaseFrom(pl, p, cc.Options{})
		if err != nil {
			fmt.Fprintf(w, "%-16s error: %v\n", p.Name, err)
			continue
		}
		out = append(out, res)
		fmt.Fprintf(w, "%-16s detect %-10d analyze(screened) %-10d analyze(all) %-10d flagged %d kernel(s), %d records, %d events\n",
			p.Name, res.DetectorCycles, res.AnalyzerCycles, res.FullAnalyzerCycles,
			len(res.FlaggedKernels), res.Records, res.Events)
	}
	return out
}
