package fpx

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"

	"gpufpx/internal/cuda"
	"gpufpx/internal/device"
	"gpufpx/internal/fpval"
	"gpufpx/internal/nvbit"
	"gpufpx/internal/sass"
)

// FlowState is the instruction-state categorization of Table 2.
type FlowState uint8

const (
	// StateSharedRegister marks instructions whose destination register is
	// also a source; the analyzer captures values before execution so the
	// write cannot clobber the evidence (§3.2.1).
	StateSharedRegister FlowState = iota
	// StateComparison marks the control-flow opcodes (FSEL/FSET/FSETP/
	// FMNMX/DSETP) through which exceptions steer or vanish.
	StateComparison
	// StateAppearance: the destination is exceptional, no source was.
	StateAppearance
	// StatePropagation: destination and some source are exceptional.
	StatePropagation
	// StateDisappearance: a source was exceptional, the destination is not.
	StateDisappearance
)

// String returns the state name as printed in analyzer reports.
func (s FlowState) String() string {
	switch s {
	case StateSharedRegister:
		return "SHARED REGISTER"
	case StateComparison:
		return "COMPARISON"
	case StateAppearance:
		return "APPEARANCE"
	case StatePropagation:
		return "PROPAGATION"
	case StateDisappearance:
		return "DISAPPEARANCE"
	default:
		return fmt.Sprintf("FlowState(%d)", uint8(s))
	}
}

// FlowEvent is one analyzer observation: an instruction execution involving
// an exceptional value, with the register classes before and after.
type FlowEvent struct {
	State  FlowState
	Kernel string
	PC     int
	SASS   string
	Loc    sass.SourceLoc
	// Before and After hold the IEEE class of each tracked register:
	// index 0 is the destination, the rest are the non-predicate sources
	// in operand order. Before is nil for states that only report the
	// post-state.
	Before []fpval.Class
	After  []fpval.Class
}

// AnalyzerConfig configures the GPU-FPX analyzer.
type AnalyzerConfig struct {
	Whitelist      []string
	FreqRednFactor int
	// MaxEventsPerLocation caps report spam per instruction location;
	// 0 means the default of 4. Aggregate counters always see every event.
	MaxEventsPerLocation int
	// Output receives the textual report lines; nil discards.
	Output io.Writer
	// OnEvent, when set, observes each emitted flow event the moment it is
	// materialized — the streaming-results hook. Events past the
	// per-location cap never reach it, exactly as they never reach the
	// report; the callback runs on the launching goroutine, in report
	// order.
	OnEvent func(FlowEvent)

	// BeforeCost/AfterCost are the per-warp cycles of the two injected
	// calls; the analyzer is deliberately costlier than the detector.
	BeforeCost, AfterCost uint64
	// EventWords is the channel size of one shipped analysis event.
	EventWords int
}

// DefaultAnalyzerConfig returns the evaluation configuration.
func DefaultAnalyzerConfig() AnalyzerConfig {
	return AnalyzerConfig{
		MaxEventsPerLocation: 4,
		BeforeCost:           40,
		AfterCost:            40,
		EventWords:           8,
	}
}

// AnalyzerStats aggregates flow information — the evidence Table 7's
// diagnosis verdicts rest on.
type AnalyzerStats struct {
	Appearances    uint64
	Propagations   uint64
	Disappearances uint64
	Comparisons    uint64
	SharedRegister uint64
	// OutputExceptions counts exceptional values written to global memory
	// — exceptions that reach kernel outputs rather than dying inside.
	OutputExceptions uint64
	// OutputSevere counts only NaN/INF values reaching global memory; the
	// Table 7 "do the exceptions matter?" verdicts rest on this.
	OutputSevere uint64
}

// Analyzer is the GPU-FPX analyzer tool.
type Analyzer struct {
	cfg   AnalyzerConfig
	white map[string]bool
	out   io.Writer

	events []FlowEvent
	// sites aggregates per-location state counters and the emitted-event
	// cap; entries are created at Instrument time and shared by sites with
	// the same ⟨kernel, pc⟩ location.
	sites map[locKey]*siteCounts
	stats AnalyzerStats
	// scratch holds one fixed-size pre-execution class buffer per warp in a
	// block, reused across instructions and launches — the lowered
	// replacement for a per-instruction map insert/delete.
	scratch []siteClasses
}

// NewAnalyzer builds an analyzer tool.
func NewAnalyzer(cfg AnalyzerConfig) *Analyzer {
	if cfg.MaxEventsPerLocation == 0 {
		cfg.MaxEventsPerLocation = 4
	}
	a := &Analyzer{
		cfg:     cfg,
		out:     cfg.Output,
		sites:   make(map[locKey]*siteCounts),
		scratch: make([]siteClasses, 32), // covers blockDim ≤ 1024 without growth
	}
	if a.out == nil {
		a.out = io.Discard
	}
	if len(cfg.Whitelist) > 0 {
		a.white = make(map[string]bool, len(cfg.Whitelist))
		for _, n := range cfg.Whitelist {
			a.white[n] = true
		}
	}
	return a
}

// AttachAnalyzer creates an analyzer and attaches it to the context.
func AttachAnalyzer(ctx *cuda.Context, cfg AnalyzerConfig) *Analyzer {
	a := NewAnalyzer(cfg)
	nvbit.Attach(ctx, a, nvbit.DefaultCosts())
	return a
}

// Name implements nvbit.Tool.
func (a *Analyzer) Name() string { return "GPU-FPX-analyzer" }

// ShouldInstrument implements Algorithm 3 for the analyzer.
func (a *Analyzer) ShouldInstrument(k *sass.Kernel, invocation int) bool {
	if a.white != nil && !a.white[k.Name] {
		return false
	}
	if f := a.cfg.FreqRednFactor; f > 1 && invocation%f != 0 {
		return false
	}
	return true
}

// Instrument compiles every tracked FP instruction — including the
// control-flow opcodes BinFPE misses — into a lowered siteProg and inserts
// its before/after calls, plus an output check on global stores. A site that
// needs no pre-execution capture (destination-less comparisons) installs a
// nil before body: the call's cycle cost is still charged, matching the
// injected-SASS cost model, but no host work runs.
func (a *Analyzer) Instrument(k *sass.Kernel) map[int][]device.InjectedCall {
	inj := make(map[int][]device.InjectedCall)
	hasFP := k.FPInstrCount() > 0
	for i := range k.Instrs {
		in := &k.Instrs[i]
		switch {
		case a.tracked(in):
			s := a.compileSite(k.Name, in)
			var beforeFn device.InjectFn
			if s.needBefore() {
				beforeFn = s.before
			}
			inj[in.PC] = append(inj[in.PC],
				device.InjectedCall{When: device.Before, Cost: a.cfg.BeforeCost, Fn: beforeFn},
				device.InjectedCall{When: device.After, Cost: a.cfg.AfterCost, Fn: s.after},
			)
		case hasFP && in.Op == sass.OpSTG:
			inj[in.PC] = append(inj[in.PC],
				device.InjectedCall{When: device.Before, Cost: a.cfg.BeforeCost, Fn: a.storeFn(in)})
		}
	}
	return inj
}

// tracked reports whether the analyzer follows this instruction: FP compute
// plus the Table 1 control-flow opcodes.
func (a *Analyzer) tracked(in *sass.Instr) bool {
	op := in.Op
	return op.IsFP32Compute() || op.IsFP64Compute() || op.IsFP16Compute() || op.IsControlFlowFP()
}

func anyExceptional(cs []fpval.Class) bool {
	for _, c := range cs {
		if c.Exceptional() {
			return true
		}
	}
	return false
}

// storeFn flags exceptional values escaping to global memory. The check is
// one mask pass through the device's lowered classifier; the per-category
// counters are popcounts over the returned lane masks.
func (a *Analyzer) storeFn(in *sass.Instr) device.InjectFn {
	wide := in.HasMod("64")
	reg := in.Operands[1].Reg
	return func(ctx *device.InjCtx) error {
		var nan, inf, sub uint32
		if wide {
			nan, inf, sub = ctx.ExcMasks64(reg)
		} else {
			nan, inf, sub = ctx.ExcMasks32(reg)
		}
		if exc := nan | inf | sub; exc != 0 {
			a.stats.OutputExceptions += uint64(bits.OnesCount32(exc))
			a.stats.OutputSevere += uint64(bits.OnesCount32(nan | inf))
		}
		return nil
	}
}

// report prints the event in the paper's listing format, e.g.:
//
//	#GPU-FPX-ANA SHARED REGISTER: Before executing the instruction @
//	/unknown_path in [kernel]:0 Instruction: FSEL R2, R5, R2, !P6 ; We
//	have 3 registers in total. Register 0 is VAL. Register 1 is NaN. ...
func (a *Analyzer) report(ev FlowEvent) {
	if ev.State == StateSharedRegister && ev.Before != nil {
		fmt.Fprintln(a.out, formatAnaLine(ev, "Before", ev.Before))
	}
	fmt.Fprintln(a.out, formatAnaLine(ev, "After", ev.After))
}

func formatAnaLine(ev FlowEvent, phase string, classes []fpval.Class) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#GPU-FPX-ANA %s: %s executing the instruction @ %s in [%s]:%d Instruction: %s We have %d registers in total.",
		ev.State, phase, ev.Loc, ev.Kernel, ev.Loc.Line, ev.SASS, len(classes))
	for i, c := range classes {
		name := c.String()
		if c == fpval.Zero || c == fpval.Normal {
			name = "VAL"
		}
		fmt.Fprintf(&b, " Register %d is %s.", i, name)
	}
	return b.String()
}

// OnExit prints the aggregate flow summary and the hottest sites.
func (a *Analyzer) OnExit() {
	fmt.Fprintf(a.out,
		"#GPU-FPX-ANA summary: %d appearances, %d propagations, %d disappearances, %d comparisons, %d shared-register events, %d exceptional values stored to output\n",
		a.stats.Appearances, a.stats.Propagations, a.stats.Disappearances,
		a.stats.Comparisons, a.stats.SharedRegister, a.stats.OutputExceptions)
	flows := a.TopFlows(8)
	if len(flows) == 0 {
		return
	}
	fmt.Fprintln(a.out, "#GPU-FPX-ANA hottest exception-flow sites:")
	for _, site := range flows {
		fmt.Fprintf(a.out, "  %6d  @ %s in [%s]:%d  %s ", site.Total, site.Loc, site.Kernel, site.PC, site.SASS)
		first := true
		for _, st := range []FlowState{StateAppearance, StatePropagation, StateDisappearance, StateComparison, StateSharedRegister} {
			if n := site.States[st]; n > 0 {
				if !first {
					fmt.Fprint(a.out, ", ")
				}
				fmt.Fprintf(a.out, "%s x%d", st, n)
				first = false
			}
		}
		fmt.Fprintln(a.out)
	}
}

// Events returns the recorded flow events (capped per location).
func (a *Analyzer) Events() []FlowEvent { return a.events }

// FlowSite aggregates the analyzer's observations for one instruction
// location: how often each Table 2 state occurred there.
type FlowSite struct {
	Kernel string
	PC     int
	SASS   string
	Loc    sass.SourceLoc
	// States[state] counts dynamic occurrences (uncapped).
	States map[FlowState]uint64
	Total  uint64
}

// TopFlows compiles the per-site exception-flow summary, most active sites
// first — the "where do exceptions appear, propagate and die" digest a user
// reads before diving into individual events.
func (a *Analyzer) TopFlows(limit int) []FlowSite {
	agg := make(map[locKey]*FlowSite)
	for lk, c := range a.sites {
		var total uint64
		for _, n := range c.states {
			total += n
		}
		if total == 0 {
			// Instrumented but never saw an exceptional value.
			continue
		}
		site := &FlowSite{Kernel: lk.kernel, PC: lk.pc, Total: total,
			States: make(map[FlowState]uint64)}
		for st, n := range c.states {
			if n > 0 {
				site.States[FlowState(st)] = n
			}
		}
		// Fill in the instruction text from any recorded event.
		agg[lk] = site
	}
	for _, ev := range a.events {
		if site, ok := agg[locKey{ev.Kernel, ev.PC}]; ok && site.SASS == "" {
			site.SASS = ev.SASS
			site.Loc = ev.Loc
		}
	}
	out := make([]*FlowSite, 0, len(agg))
	for _, s := range agg {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		if out[i].Kernel != out[j].Kernel {
			return out[i].Kernel < out[j].Kernel
		}
		return out[i].PC < out[j].PC
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	res := make([]FlowSite, len(out))
	for i, s := range out {
		res[i] = *s
	}
	return res
}

// Stats returns the aggregate flow counters.
func (a *Analyzer) Stats() AnalyzerStats { return a.stats }
