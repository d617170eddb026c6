// Package bench is the experiment harness: it reruns the paper's entire
// evaluation — every table and figure of §4 and §5 — on the simulated
// substrate. Slowdown is the paper's metric: the ratio of a program's
// instrumented runtime to its plain runtime, measured here in deterministic
// device cycles.
package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"gpufpx/internal/cc"
	"gpufpx/internal/device"
	"gpufpx/internal/fpx"
	"gpufpx/internal/progs"
	"gpufpx/pkg/gpufpx"
)

// Tool selects the instrumentation configuration of a run.
type Tool int

const (
	// ToolNone runs uninstrumented (the slowdown baseline).
	ToolNone Tool = iota
	// ToolBinFPE is the prior-work baseline.
	ToolBinFPE
	// ToolFPXNoGT is GPU-FPX's first evolution phase: on-device checking
	// but per-occurrence transfers (Figure 4's middle series).
	ToolFPXNoGT
	// ToolFPX is the full detector with the GT deduplication table.
	ToolFPX
	// ToolAnalyzer is the exception-flow analyzer.
	ToolAnalyzer
	// ToolShadow is the shadow-precision numerical sanitizer.
	ToolShadow
	// ToolMemcheck is the out-of-bounds memory checker.
	ToolMemcheck
)

// String names the tool as in the figures.
func (t Tool) String() string {
	switch t {
	case ToolNone:
		return "plain"
	case ToolBinFPE:
		return "BinFPE"
	case ToolFPXNoGT:
		return "GPU-FPX w/o GT"
	case ToolFPX:
		return "GPU-FPX"
	case ToolAnalyzer:
		return "GPU-FPX analyzer"
	case ToolShadow:
		return "GPU-FPX shadow"
	case ToolMemcheck:
		return "memcheck"
	default:
		return fmt.Sprintf("Tool(%d)", int(t))
	}
}

// ParseTool maps a -tool flag value, any name gpufpx.ParseTool accepts, to
// the bench series that runs that tool in its default configuration.
func ParseTool(name string) (Tool, error) {
	ft, err := gpufpx.ParseTool(name)
	if err != nil {
		return 0, fmt.Errorf("bench: %w", err)
	}
	// ToolFPXNoGT is left out: the default detector keeps its GT.
	for _, t := range []Tool{ToolNone, ToolBinFPE, ToolFPX, ToolAnalyzer, ToolShadow, ToolMemcheck} {
		if t.facade().Name() == ft.Name() {
			return t, nil
		}
	}
	return 0, fmt.Errorf("bench: no series runs tool %q", ft.Name())
}

// facade is the tool the series runs, built through the public session
// facade.
func (t Tool) facade() gpufpx.Tool {
	switch t {
	case ToolBinFPE:
		return gpufpx.BinFPE()
	case ToolFPXNoGT:
		cfg := gpufpx.DefaultDetectorConfig()
		cfg.UseGT = false
		return gpufpx.Detector(cfg)
	case ToolFPX:
		return gpufpx.Detector(gpufpx.DefaultDetectorConfig())
	case ToolAnalyzer:
		return gpufpx.Analyzer(gpufpx.DefaultAnalyzerConfig())
	case ToolShadow:
		return gpufpx.Shadow(gpufpx.DefaultShadowConfig())
	case ToolMemcheck:
		return gpufpx.Memcheck()
	}
	return gpufpx.Plain()
}

// deviceConfig is the evaluation device: the default cost model with a
// watchdog tight enough that genuinely pathological channel traffic is
// reported as a hang (as BinFPE hangs in the paper) while every ordinary
// program finishes.
func deviceConfig() device.Config {
	cfg := device.DefaultConfig()
	// A 16k-word channel buffer absorbs the traffic of FP-light programs
	// entirely (they never stall), while FP-dense programs saturate it and
	// run at the drain rate — the mechanism behind Figure 4's split between
	// cheap and catastrophic BinFPE runs.
	cfg.ChannelCapacity = 16 << 10
	cfg.ChannelCyclesPerWord = 80
	cfg.HangBudget = 1 << 26
	return cfg
}

// RunResult is one (program, tool) measurement.
type RunResult struct {
	Program progs.Program
	Tool    Tool
	// Cycles is the total simulated runtime; valid only when !Hung.
	Cycles uint64
	// Hung reports a genuine channel-watchdog hang (device.ErrHang) — the
	// evaluation outcome the paper observes for BinFPE. Any other run
	// error (compile failure, dynamic-instruction budget abort) lands in
	// Err with Hung false so a malformed corpus program fails loudly
	// instead of silently inflating Figure 4's hang bucket.
	Hung bool
	// Err is the run error, if any; set for hangs too (errors.Is
	// device.ErrHang).
	Err error
	// Summary holds the detector's unique-record counts (GPU-FPX tools).
	Summary fpx.Summary
	// FreqRedn is the sampling factor the run used.
	FreqRedn int
	// Launches counts the program's kernel launches.
	Launches int
	// KernelLaunches is the launch count of the program's most-launched
	// kernel — the bound of the plan's sampling clamp (freq-redn-factor
	// counts invocations per kernel).
	KernelLaunches int
	// Launched names the kernels the program launched, sorted.
	Launched []string
	// Flagged names the kernels with detector records in first-record
	// order, and Records counts those records (detector tools only).
	Flagged []string
	Records int
	// Events counts the analyzer's flow events and Flow holds its
	// aggregates (analyzer only).
	Events int
	Flow   fpx.AnalyzerStats
}

// Failed reports a non-hang run failure.
func (r RunResult) Failed() bool { return r.Err != nil && !r.Hung }

// Slowdown returns instrumented/plain given the plain-run cycles.
func (r RunResult) Slowdown(plain uint64) float64 {
	if plain == 0 {
		return 1
	}
	return float64(r.Cycles) / float64(plain)
}

// Options bundle per-run knobs.
type Options struct {
	Compiler cc.Options
	FreqRedn int
	// Fixed runs the repaired variant when available.
	Fixed bool
}

// Run executes one program under one tool configuration on the evaluation
// device. It bypasses any plan: every call is a fresh measurement.
func Run(p progs.Program, tool Tool, opt Options) RunResult {
	return execute(p, keyOf(p, tool, opt))
}

// runHook, when set, sees the key of every run execute starts — the test
// probe behind the plan's run-once guarantee.
var runHook func(runKey)

// execute is the one runner behind Run and every plan cell. Tool
// construction goes through the public session facade — the same path
// fpx-run and fpx-serve use — with the key's device cost model swapped in.
func execute(p progs.Program, k runKey) RunResult {
	if runHook != nil {
		runHook(k)
	}
	dev := deviceConfig()
	if k.dev == stockDevice {
		dev = device.DefaultConfig()
	}
	sOpts := []gpufpx.Option{
		gpufpx.WithDeviceConfig(dev),
		gpufpx.WithCompile(k.opt.Compiler),
		gpufpx.WithFreq(k.opt.FreqRedn),
		gpufpx.WithTool(k.tool.facade()),
	}
	if k.white != "" {
		sOpts = append(sOpts, gpufpx.WithKernelWhitelist(strings.Split(k.white, "\n")...))
	}

	// The program runs wrapped so the run can report which kernels it
	// launched — what the plan's whitelist rule compares against.
	var launched []string
	rp := p
	rp.Run, rp.FixedRun = recordLaunches(p.Run, &launched), recordLaunches(p.FixedRun, &launched)
	src := gpufpx.ProgramValue(rp, k.opt.Fixed && p.FixedRun != nil)
	rep, err := gpufpx.New(sOpts...).Run(context.Background(), src)

	res := RunResult{Program: p, Tool: k.tool, FreqRedn: k.opt.FreqRedn, Launched: launched}
	if rep != nil {
		res.Cycles = rep.Cycles
		res.Summary = rep.Summary
		res.Launches = rep.Launches
		res.KernelLaunches = rep.MaxKernelLaunches
		res.Records = len(rep.Records)
		for _, r := range rep.Records {
			if !slices.Contains(res.Flagged, r.Kernel) {
				res.Flagged = append(res.Flagged, r.Kernel)
			}
		}
		if rep.Analyzer != nil {
			res.Events = len(rep.Analyzer.Events)
			res.Flow = rep.Analyzer.Stats
		}
	}
	if err != nil {
		res.Err = err
		res.Hung = errors.Is(err, device.ErrHang)
	}
	return res
}

// recordLaunches wraps a program body so that, once it returns, *into
// holds the names of the kernels it launched. A nil body stays nil.
func recordLaunches(run func(*progs.RunContext) error, into *[]string) func(*progs.RunContext) error {
	if run == nil {
		return nil
	}
	return func(rc *progs.RunContext) error {
		err := run(rc)
		*into = rc.Ctx.LaunchedKernels()
		return err
	}
}

// mustOK panics on a non-hang run failure: a malformed corpus program is a
// harness bug, not a measurement.
func mustOK(r RunResult) RunResult {
	if r.Failed() {
		panic(fmt.Sprintf("bench: %s under %s failed: %v", r.Program.Name, r.Tool, r.Err))
	}
	return r
}

// Sweep holds the full corpus × {plain, BinFPE, w/o GT, GPU-FPX}
// measurement that Figures 4 and 5 and the headline speedups derive from.
type Sweep struct {
	Programs []progs.Program
	Plain    []RunResult
	BinFPE   []RunResult
	NoGT     []RunResult
	FPX      []RunResult

	// plan holds every run of the evaluation the sweep belongs to; the
	// artifacts given this sweep read their runs from it.
	plan *plan
}

// RunSweep runs the whole evaluation: every unique run of every table and
// figure, each exactly once, on one worker pool. It returns the corpus
// sweep and publishes the plan as the current evaluation, which Table7
// and TwoPhase read; the other artifacts read it through the sweep. Each
// call starts a fresh plan, so no run is reused across regenerations.
func RunSweep() *Sweep {
	ps := progs.All()
	pl := newPlan()
	pl.fill(evaluationNeeds(ps)...)
	s := sweepFrom(pl, ps)
	current.Store(pl)
	return s
}

// sweepTools is the tool column order of the sweep.
var sweepTools = [4]Tool{ToolNone, ToolBinFPE, ToolFPXNoGT, ToolFPX}

// RunSweepOn measures only the given programs under the four sweep tools —
// the sweep-only entry for callers that need no other artifact. Results
// are placed by index, so the slices are identical for any worker count.
func RunSweepOn(ps []progs.Program) *Sweep {
	pl := newPlan()
	pl.fill(sweepNeed(ps))
	return sweepFrom(pl, ps)
}

// sweepNeed declares the sweep: every program under the four sweep tools.
func sweepNeed(ps []progs.Program) need {
	var n need
	for _, p := range ps {
		for _, t := range sweepTools {
			n.runs = append(n.runs, keyed{p, keyOf(p, t, Options{})})
		}
	}
	return n
}

// sweepFrom assembles the sweep columns from the plan's results.
func sweepFrom(pl *plan, ps []progs.Program) *Sweep {
	n := len(ps)
	s := &Sweep{
		Programs: ps,
		Plain:    make([]RunResult, n),
		BinFPE:   make([]RunResult, n),
		NoGT:     make([]RunResult, n),
		FPX:      make([]RunResult, n),
		plan:     pl,
	}
	cols := [4][]RunResult{s.Plain, s.BinFPE, s.NoGT, s.FPX}
	for i, p := range ps {
		for ti, t := range sweepTools {
			cols[ti][i] = pl.result(p, keyOf(p, t, Options{}))
		}
	}
	return s
}

// evaluationNeeds declares the runs of every artifact of the evaluation.
// The artifacts with runs outside the sweep come first, so their long
// analyzer runs start early and the corpus sweep fills in around them.
func evaluationNeeds(ps []progs.Program) []need {
	return []need{
		table7Need(),
		twoPhaseNeed(twoPhasePrograms(nil), cc.Options{}),
		table6Need(),
		table5Need(),
		movielensNeed(),
		sweepNeed(ps),
		figure6Need(ps),
	}
}

// Err returns the non-hang failures of the sweep, if any — the loud path
// for malformed corpus programs.
func (s *Sweep) Err() error {
	var errs []error
	for _, col := range [4][]RunResult{s.Plain, s.BinFPE, s.NoGT, s.FPX} {
		for _, r := range col {
			if r.Failed() {
				errs = append(errs, fmt.Errorf("%s under %s: %w", r.Program.Name, r.Tool, r.Err))
			}
		}
	}
	return errors.Join(errs...)
}

// Hangs counts the hung runs across all four sweep columns.
func (s *Sweep) Hangs() int {
	n := 0
	for _, col := range [4][]RunResult{s.Plain, s.BinFPE, s.NoGT, s.FPX} {
		for _, r := range col {
			if r.Hung {
				n++
			}
		}
	}
	return n
}

// TotalCycles sums the simulated cycles of every run in the sweep.
func (s *Sweep) TotalCycles() uint64 {
	var total uint64
	for _, col := range [4][]RunResult{s.Plain, s.BinFPE, s.NoGT, s.FPX} {
		for _, r := range col {
			total += r.Cycles
		}
	}
	return total
}

// PlainRuns measures only the uninstrumented corpus (the slowdown
// baseline), for experiments that do not need the full sweep.
func PlainRuns() []RunResult {
	ps := progs.All()
	out := make([]RunResult, len(ps))
	forEach(len(ps), func(i int) {
		out[i] = Run(ps[i], ToolNone, Options{})
	})
	return out
}

// CorpusStats summarizes a single-tool pass over the whole corpus — the
// artifact behind fpx-bench -tool.
type CorpusStats struct {
	Tool     Tool
	Programs int
	Cycles   uint64
	Hangs    int
	// Records sums the per-program unique detector records (detector
	// tools only; zero otherwise).
	Records int
}

// RunCorpus measures every corpus program under one tool, fanning the runs
// out over the worker pool. Non-hang failures abort (via mustOK): a
// malformed program is a harness bug, not a measurement.
func RunCorpus(tool Tool, opt Options) CorpusStats {
	ps := progs.All()
	rs := make([]RunResult, len(ps))
	forEach(len(ps), func(i int) {
		rs[i] = Run(ps[i], tool, opt)
	})
	st := CorpusStats{Tool: tool, Programs: len(ps)}
	for _, r := range rs {
		mustOK(r)
		if r.Hung {
			st.Hangs++
			continue
		}
		st.Cycles += r.Cycles
		st.Records += r.Summary.Total()
	}
	return st
}

// Slowdowns returns per-program slowdown for one tool's results; hung runs
// report as (0, true).
func (s *Sweep) Slowdowns(rs []RunResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		mustOK(r)
		if r.Hung {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = r.Slowdown(s.Plain[i].Cycles)
	}
	return out
}

// GeomeanSpeedup returns the geometric-mean of BinFPE-slowdown over
// GPU-FPX-slowdown across programs where both tools finish — the paper's
// headline "16× faster with respect to the geometric-mean runtime".
func (s *Sweep) GeomeanSpeedup() float64 {
	bin := s.Slowdowns(s.BinFPE)
	fpxS := s.Slowdowns(s.FPX)
	logSum, n := 0.0, 0
	for i := range bin {
		if math.IsInf(bin[i], 1) || math.IsInf(fpxS[i], 1) {
			continue
		}
		logSum += math.Log(bin[i] / fpxS[i])
		n++
	}
	if n == 0 {
		return 1
	}
	return math.Exp(logSum / float64(n))
}

// Geomean returns the geometric mean of the finite values.
func Geomean(xs []float64) float64 {
	logSum, n := 0.0, 0
	for _, x := range xs {
		if x <= 0 || math.IsInf(x, 0) || math.IsNaN(x) {
			continue
		}
		logSum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Fraction returns the share of finite slowdowns below the limit.
func Fraction(xs []float64, below float64) float64 {
	n, total := 0, 0
	for _, x := range xs {
		if math.IsInf(x, 0) {
			continue
		}
		total++
		if x < below {
			n++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// SpeedupCounts returns how many programs have BinFPE/GPU-FPX slowdown
// ratios of at least 100× and at least 1000× — Figure 5's annotations.
func (s *Sweep) SpeedupCounts() (atLeast100, atLeast1000, hungBinFPE int) {
	bin := s.Slowdowns(s.BinFPE)
	fpxS := s.Slowdowns(s.FPX)
	for i := range bin {
		if math.IsInf(bin[i], 1) {
			hungBinFPE++
			continue
		}
		if math.IsInf(fpxS[i], 1) {
			continue
		}
		r := bin[i] / fpxS[i]
		if r >= 100 {
			atLeast100++
		}
		if r >= 1000 {
			atLeast1000++
		}
	}
	return
}

// Outliers returns programs visibly below the Figure 5 diagonal: GPU-FPX
// at least 1.5× slower than BinFPE. (Programs with no FP work sit a hair
// under the diagonal because of the GT allocation; only the nearly-FP-free
// ones show a real gap.)
func (s *Sweep) Outliers() []string {
	bin := s.Slowdowns(s.BinFPE)
	fpxS := s.Slowdowns(s.FPX)
	var out []string
	for i := range bin {
		if math.IsInf(bin[i], 1) || math.IsInf(fpxS[i], 1) {
			continue
		}
		if fpxS[i] > 1.5*bin[i] {
			out = append(out, s.Programs[i].Name)
		}
	}
	sort.Strings(out)
	return out
}
