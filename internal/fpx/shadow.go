package fpx

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"

	"gpufpx/internal/cuda"
	"gpufpx/internal/device"
	"gpufpx/internal/nvbit"
	"gpufpx/internal/sass"
)

// The shadow-precision sanitizer is the third GPU-FPX tool, after the
// detector and the analyzer: every FP32/FP16 compute instruction also
// executes in an FP64 shadow register file, and the tool reports where the
// real computation has drifted from the shadow — significance loss,
// catastrophic cancellation and outright divergence — *before* the drift
// matures into the NaN/INF the other tools wait for (NSan's recipe, at the
// paired-execution cost Reduced Precision Checking showed is affordable).

// ShadowKind classifies one shadow finding. The numeric order is the
// severity order the worst-lane reduction uses: divergence dominates
// cancellation dominates significance loss.
type ShadowKind uint8

const (
	// KindSignificanceLoss: the real result's relative error against the
	// FP64 shadow exceeds the configured threshold — accumulated rounding
	// has eaten through the format's significand.
	KindSignificanceLoss ShadowKind = iota
	// KindCancellation: an add-like operation's exponent collapsed by at
	// least CancelBits relative to its largest addend — the classic
	// catastrophic-cancellation shape, measured exactly in the shadow.
	KindCancellation
	// KindDivergence: the real value is INF/NaN while the shadow is finite
	// (or vice versa) — the computations have structurally parted ways.
	KindDivergence
)

// String returns the kind name as printed in shadow reports.
func (k ShadowKind) String() string {
	switch k {
	case KindSignificanceLoss:
		return "SIGNIFICANCE LOSS"
	case KindCancellation:
		return "CANCELLATION"
	case KindDivergence:
		return "DIVERGENCE"
	default:
		return fmt.Sprintf("ShadowKind(%d)", uint8(k))
	}
}

// Finding is one shadow observation: an instruction execution whose real
// result drifted from the FP64 shadow, with the worst lane's evidence.
type Finding struct {
	Kind   ShadowKind
	Kernel string
	PC     int
	SASS   string
	Loc    sass.SourceLoc
	// Lane is the worst executing lane of the reduced warp execution.
	Lane int
	// Real and Shadow are the destination value as the hardware computed it
	// and as the FP64 shadow computed it.
	Real, Shadow float64
	// RelErr is |Real−Shadow| / max(|Real|,|Shadow|); zero for divergence
	// findings, whose values are not comparable.
	RelErr float64
	// LostBits measures the damage: significand bits of the result that are
	// noise (significance loss), or exponent bits the addition collapsed
	// (cancellation).
	LostBits int
}

// ShadowConfig configures the shadow-precision sanitizer.
type ShadowConfig struct {
	Whitelist      []string
	FreqRednFactor int
	// SigBits flags a result once more than SigBits bits of its format's
	// significand are noise against the shadow: the relative-error
	// threshold is 2^(SigBits − significand bits). 0 means the default of
	// 12 — half an FP32 significand lost.
	SigBits int
	// CancelBits flags an add-like operation whose result exponent sits at
	// least CancelBits below its largest addend's. 0 means the default
	// of 20.
	CancelBits int
	// MaxFindingsPerSite caps report spam per instruction location; 0 means
	// the default of 4. Aggregate counters always see every finding.
	MaxFindingsPerSite int
	// Output receives the textual report lines; nil discards.
	Output io.Writer
	// OnFinding, when set, observes each emitted finding the moment it is
	// materialized — the streaming-results hook. Findings past the
	// per-location cap never reach it; the callback runs on the launching
	// goroutine, in report order.
	OnFinding func(Finding)

	// BeforeCost/AfterCost are the per-warp cycles of the two injected
	// calls: the shadow pays an analyzer-class toll at every site, since
	// both the operand capture and the paired FP64 execution are real work.
	BeforeCost, AfterCost uint64
	// FindingWords is the channel size of one shipped finding.
	FindingWords int
}

// DefaultShadowConfig returns the evaluation configuration.
func DefaultShadowConfig() ShadowConfig {
	return ShadowConfig{
		SigBits:            12,
		CancelBits:         20,
		MaxFindingsPerSite: 4,
		BeforeCost:         40,
		AfterCost:          40,
		FindingWords:       8,
	}
}

// ShadowStats aggregates the sanitizer's dynamic counters.
type ShadowStats struct {
	// ShadowedOps counts dynamic warp executions that ran in the shadow.
	ShadowedOps uint64
	// Resyncs counts operand reads no live shadow cell covered, promoting
	// the real register value instead (first touches, clobbers by
	// uninstrumented writes, cross-block reuse).
	Resyncs uint64
	// Per-kind finding totals (uncapped).
	SignificanceLosses uint64
	Cancellations      uint64
	Divergences        uint64
}

// bump counts one finding of a kind in the aggregate counters.
func (st *ShadowStats) bump(kind ShadowKind) {
	switch kind {
	case KindSignificanceLoss:
		st.SignificanceLosses++
	case KindCancellation:
		st.Cancellations++
	case KindDivergence:
		st.Divergences++
	}
}

// Shadow is the GPU-FPX shadow-precision sanitizer tool.
type Shadow struct {
	cfg   ShadowConfig
	white map[string]bool
	out   io.Writer

	// epoch is the current launch's generation, drawn from the process-wide
	// shadowEpoch counter once per launch (ShouldInstrument runs exactly
	// once per launch); a shadow cell is live only under the generation tag
	// of the current ⟨epoch, block⟩. Because every epoch is globally
	// unique, slab reuse across launches, blocks and even other Shadow
	// instances sharing the warp pool never resurrects stale values.
	epoch uint64

	// sigThresh32/16 are the precomputed relative-error thresholds.
	sigThresh32, sigThresh16 float64

	findings []Finding
	// sites aggregates per-location kind counters and the emitted-finding
	// cap; entries are created at Instrument time and shared by sites with
	// the same ⟨kernel, pc⟩ location.
	sites map[locKey]*shadowCounts
	stats ShadowStats

	// slabs is the shadow register file, indexed by warp
	// in block and reused across blocks and launches — the generation tag
	// makes clearing unnecessary, exactly like the detector's pooled GT.
	slabs shadowSlabs
	// scratch holds one fixed-size operand capture buffer per warp in a
	// block, reused across instructions and launches.
	scratch []shadowScratch
}

// NewShadow builds a shadow-precision sanitizer tool.
func NewShadow(cfg ShadowConfig) *Shadow {
	def := DefaultShadowConfig()
	if cfg.SigBits == 0 {
		cfg.SigBits = def.SigBits
	}
	if cfg.CancelBits == 0 {
		cfg.CancelBits = def.CancelBits
	}
	if cfg.MaxFindingsPerSite == 0 {
		cfg.MaxFindingsPerSite = def.MaxFindingsPerSite
	}
	sh := &Shadow{
		cfg:         cfg,
		out:         cfg.Output,
		sites:       make(map[locKey]*shadowCounts),
		scratch:     make([]shadowScratch, 32), // covers blockDim ≤ 1024 without growth
		sigThresh32: sigThreshold(cfg.SigBits, 24),
		sigThresh16: sigThreshold(cfg.SigBits, 11),
	}
	if sh.out == nil {
		sh.out = io.Discard
	}
	if len(cfg.Whitelist) > 0 {
		sh.white = make(map[string]bool, len(cfg.Whitelist))
		for _, n := range cfg.Whitelist {
			sh.white[n] = true
		}
	}
	return sh
}

// AttachShadow creates a shadow sanitizer and attaches it to the context.
func AttachShadow(ctx *cuda.Context, cfg ShadowConfig) *Shadow {
	sh := NewShadow(cfg)
	nvbit.Attach(ctx, sh, nvbit.DefaultCosts())
	return sh
}

// Name implements nvbit.Tool.
func (sh *Shadow) Name() string { return "GPU-FPX-shadow" }

// shadowEpoch issues globally-unique launch generations. A process-wide
// counter (rather than a per-tool one) keeps the shared warp pool safe: a
// pooled slab may carry cells written by any Shadow instance, and a fresh
// epoch no instance has ever used is the one tag none of them can match.
var shadowEpoch atomic.Uint64

// ShouldInstrument implements Algorithm 3's launch filter, and — because the
// harness guarantees exactly one call per launch — opens the launch's shadow
// generation, invalidating every cell of the (uncleared, pooled) register
// file slabs.
func (sh *Shadow) ShouldInstrument(k *sass.Kernel, invocation int) bool {
	sh.epoch = shadowEpoch.Add(1)
	if sh.white != nil && !sh.white[k.Name] {
		return false
	}
	if f := sh.cfg.FreqRednFactor; f > 1 && invocation%f != 0 {
		return false
	}
	return true
}

// Instrument compiles every shadowed FP32/FP16 compute instruction into a
// lowered shadowSite and inserts its before/after calls: the before call
// captures the operands' shadow values (execution may clobber a shared
// source), the after call runs the paired FP64 execution, triages the drift
// and updates the destination's shadow cell.
func (sh *Shadow) Instrument(k *sass.Kernel) map[int][]device.InjectedCall {
	inj := make(map[int][]device.InjectedCall)
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if !shadowTracked(in) {
			continue
		}
		s := sh.compileShadowSite(k.Name, in)
		if s == nil {
			continue
		}
		inj[in.PC] = append(inj[in.PC],
			device.InjectedCall{When: device.Before, Cost: sh.cfg.BeforeCost, Fn: s.before},
			device.InjectedCall{When: device.After, Cost: sh.cfg.AfterCost, Fn: s.after},
		)
	}
	return inj
}

// shadowTracked reports whether the sanitizer pairs this instruction: the
// FP32 and FP16 compute opcodes with a register destination. FP64 compute is
// not shadowed (there is no wider shadow to pair it with), and MUFU.RCP64H
// is half of an FP64 sequence.
func shadowTracked(in *sass.Instr) bool {
	op := in.Op
	if op.IsFP32Compute() {
		return !(op == sass.OpMUFU && in.Is64H())
	}
	return op.IsFP16Compute()
}

// report prints a finding in the paper's listing style, e.g.:
//
//	#GPU-FPX-SHA CANCELLATION: The instruction @ /unknown_path in
//	[kernel]:12 Instruction: FADD R4, R2, -R3 ; lost 23 bits
//	(real=1.5e-07 shadow=1.4901161e-07 relerr=6.6e-03) in lane 0.
func (sh *Shadow) report(f Finding) {
	fmt.Fprintf(sh.out,
		"#GPU-FPX-SHA %s: The instruction @ %s in [%s]:%d Instruction: %s lost %d bits (real=%s shadow=%s relerr=%s) in lane %d.\n",
		f.Kind, f.Loc, f.Kernel, f.Loc.Line, f.SASS, f.LostBits,
		formatShadowValue(f.Real), formatShadowValue(f.Shadow), formatShadowValue(f.RelErr), f.Lane)
}

// formatShadowValue renders a float deterministically for reports and JSON
// (where INF/NaN have no numeric encoding).
func formatShadowValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// OnExit prints the aggregate summary and the hottest drift sites.
func (sh *Shadow) OnExit() {
	fmt.Fprintf(sh.out,
		"#GPU-FPX-SHA summary: %d significance losses, %d cancellations, %d divergences over %d shadowed warp executions (%d resyncs)\n",
		sh.stats.SignificanceLosses, sh.stats.Cancellations, sh.stats.Divergences,
		sh.stats.ShadowedOps, sh.stats.Resyncs)
	top := sh.TopSites(8)
	if len(top) == 0 {
		sh.slabs.release()
		return
	}
	fmt.Fprintln(sh.out, "#GPU-FPX-SHA hottest precision-drift sites:")
	for _, site := range top {
		fmt.Fprintf(sh.out, "  %6d  @ %s in [%s]:%d  %s ", site.Total, site.Loc, site.Kernel, site.PC, site.SASS)
		first := true
		for _, k := range []ShadowKind{KindDivergence, KindCancellation, KindSignificanceLoss} {
			if n := site.Kinds[k]; n > 0 {
				if !first {
					fmt.Fprint(sh.out, ", ")
				}
				fmt.Fprintf(sh.out, "%s x%d", k, n)
				first = false
			}
		}
		fmt.Fprintln(sh.out)
	}
	sh.slabs.release()
}

// Findings returns the recorded findings (capped per location).
func (sh *Shadow) Findings() []Finding { return sh.findings }

// Stats returns the aggregate shadow counters.
func (sh *Shadow) Stats() ShadowStats { return sh.stats }

// ShadowSite aggregates the sanitizer's observations for one instruction
// location: how often each drift kind occurred there (uncapped).
type ShadowSite struct {
	Kernel string
	PC     int
	SASS   string
	Loc    sass.SourceLoc
	Kinds  map[ShadowKind]uint64
	Total  uint64
}

// TopSites compiles the per-site drift summary, most active sites first.
func (sh *Shadow) TopSites(limit int) []ShadowSite {
	agg := make(map[locKey]*ShadowSite)
	for lk, c := range sh.sites {
		var total uint64
		for _, n := range c.kinds {
			total += n
		}
		if total == 0 {
			continue
		}
		site := &ShadowSite{Kernel: lk.kernel, PC: lk.pc, Total: total,
			Kinds: make(map[ShadowKind]uint64)}
		for k, n := range c.kinds {
			if n > 0 {
				site.Kinds[ShadowKind(k)] = n
			}
		}
		agg[lk] = site
	}
	for _, f := range sh.findings {
		if site, ok := agg[locKey{f.Kernel, f.PC}]; ok && site.SASS == "" {
			site.SASS = f.SASS
			site.Loc = f.Loc
		}
	}
	out := make([]*ShadowSite, 0, len(agg))
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
	res := make([]ShadowSite, len(out))
	for i, s := range out {
		res[i] = *s
	}
	return res
}
