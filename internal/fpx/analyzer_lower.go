package fpx

import (
	"gpufpx/internal/device"
	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// This file lowers the analyzer's instrumentation the way lower.go lowers
// the executor: every tracked instruction is compiled once, at Instrument
// time, into a siteProg whose operand accessors, formats, FP64-pair
// decisions, Table 2 state shape and report strings are pre-resolved. The
// per-dynamic-instruction path then runs with zero heap allocation when no
// exceptional value is involved.

// maxSiteOps bounds the tracked operands of one site. The widest tracked
// shape is FFMA: a destination plus three sources.
const maxSiteOps = 8

// siteClasses is one warp's fixed-size class capture buffer.
type siteClasses [maxSiteOps]fpval.Class

// siteProg is one analyzer site compiled at Instrument time.
type siteProg struct {
	a *Analyzer

	// srcs[0..n) classify the tracked operands: destination first when the
	// instruction writes a register, then the non-predicate sources.
	srcs [maxSiteOps]device.ToolSrc
	n    int

	// Statically known Table 2 shape: shared destination/source register,
	// comparison opcode, or the dynamic appearance/propagation/disappearance
	// triage. hasDst says whether srcs[0] is the destination.
	shared  bool
	compare bool
	hasDst  bool

	// Pre-rendered report identity: the SASS text is built once here, never
	// per event.
	kernel string
	pc     int
	sass   string
	loc    sass.SourceLoc

	counts *locCounts
}

// compileSite lowers one tracked instruction. The operand formats replicate
// the interpretive classes() selection: sources read SrcFormat, the
// destination DestFormat when the opcode has one, and FP64 compute (plus
// DSETP) widens register sources to the pair convention.
func (a *Analyzer) compileSite(kernel string, in *sass.Instr) *siteProg {
	s := &siteProg{
		a:      a,
		kernel: kernel,
		pc:     in.PC,
		sass:   in.String(),
		loc:    in.Loc,
	}
	srcFmt, _ := in.Op.SrcFormat()
	dstFmt, hasDstFmt := in.Op.DestFormat()
	wide := in.Op.IsFP64Compute() || in.Op == sass.OpDSETP
	ops := in.AnalyzerOperands(nil)
	if len(ops) > maxSiteOps {
		panic("fpx: analyzer site exceeds maxSiteOps tracked operands")
	}
	s.n = len(ops)
	for i := range ops {
		f := srcFmt
		if wide {
			f = fpval.FP64
		}
		if i == 0 && hasDstFmt {
			f = dstFmt
		}
		s.srcs[i] = device.LowerClassSrc(&ops[i], f)
	}
	_, s.hasDst = in.DestReg()
	s.shared = in.SharesDestWithSource()
	s.compare = in.Op.IsControlFlowFP()
	s.counts = a.sites.at(kernel, in.PC)
	anaSites.Add(1)
	return s
}

// needBefore reports whether the site must capture any pre-execution state.
// Shared-register sites capture every operand (execution clobbers the
// evidence, §3.2.1); other sites with a destination capture only the stale
// destination class, because the executor writes nothing a non-shared site
// reads — source registers classify identically before and after, so the
// after pass can reconstruct the pre-state. Destination-less comparison
// sites (FSETP/DSETP) capture nothing.
func (s *siteProg) needBefore() bool { return s.shared || s.hasDst }

// before is the injected pre-execution capture, writing into the warp's
// fixed scratch slot: no map insert, no allocation.
func (s *siteProg) before(ctx *device.InjCtx) error {
	buf := s.a.scratch.at(ctx.Warp.WarpInBlock)
	if s.shared {
		for i := 0; i < s.n; i++ {
			buf[i] = s.srcs[i].Worst(ctx)
		}
		return nil
	}
	buf[0] = s.srcs[0].Worst(ctx)
	return nil
}

// capture runs the site's post-execution classification and reconstructs
// the pre-execution view from the given scratch slot: non-shared sites only
// ever clobber the destination, so their source classes are the after
// classes and only the stale destination needs the captured slot.
func (s *siteProg) capture(ctx *device.InjCtx, slot *siteClasses) (bef, aft siteClasses) {
	for i := 0; i < s.n; i++ {
		aft[i] = s.srcs[i].Worst(ctx)
	}
	bef = aft
	if s.shared {
		bef = *slot
	} else if s.hasDst {
		bef[0] = slot[0]
	}
	return bef, aft
}

// triage classifies one execution into its Table 2 state; ok is false for
// the no-exception case (the overwhelmingly common one) and for the
// dynamic shapes that produce no state.
func (s *siteProg) triage(bef, aft *siteClasses) (state FlowState, ok bool) {
	n := s.n
	if !anyExceptional(bef[:n]) && !anyExceptional(aft[:n]) {
		return 0, false
	}
	switch {
	case s.shared:
		return StateSharedRegister, true
	case s.compare:
		return StateComparison, true
	default:
		destExc := n > 0 && aft[0].Exceptional()
		srcExc := n > 1 && anyExceptional(bef[1:n])
		switch {
		case destExc && !srcExc:
			return StateAppearance, true
		case destExc:
			return StatePropagation, true
		case srcExc:
			return StateDisappearance, true
		}
	}
	return 0, false
}

// bump counts one occurrence of a state in the aggregate counters.
func (st *AnalyzerStats) bump(state FlowState) {
	switch state {
	case StateSharedRegister:
		st.SharedRegister++
	case StateComparison:
		st.Comparisons++
	case StateAppearance:
		st.Appearances++
	case StatePropagation:
		st.Propagations++
	case StateDisappearance:
		st.Disappearances++
	}
}

// emit materializes and ships one flow event — the under-cap path of the
// after call. The caller has already checked the per-location cap.
func (a *Analyzer) emit(s *siteProg, state FlowState, bef, aft *siteClasses, dev *device.Device) error {
	s.counts.emit(s.sass, s.loc)
	n := s.n
	before := make([]fpval.Class, n)
	copy(before, bef[:n])
	after := make([]fpval.Class, n)
	copy(after, aft[:n])
	ev := FlowEvent{
		State:  state,
		Kernel: s.kernel,
		PC:     s.pc,
		SASS:   s.sass,
		Loc:    s.loc,
		Before: before,
		After:  after,
	}
	a.events = append(a.events, ev)
	if a.cfg.OnEvent != nil {
		a.cfg.OnEvent(ev)
	}
	a.report(ev)
	// Ship the event to the host channel (analysis data).
	return dev.PushPacket(device.Packet{Words: a.cfg.EventWords, Payload: ev})
}

// after classifies the instruction state (Table 2) and emits the report.
func (s *siteProg) after(ctx *device.InjCtx) error {
	a := s.a
	bef, aft := s.capture(ctx, a.scratch.at(ctx.Warp.WarpInBlock))
	state, ok := s.triage(&bef, &aft)
	if !ok {
		return nil
	}
	a.stats.bump(state)
	s.counts.n[state]++
	if s.counts.emitted < a.cfg.MaxEventsPerLocation {
		// Only now — when the event will actually be emitted — is the
		// FlowEvent materialized.
		return a.emit(s, state, &bef, &aft, ctx.Dev)
	}
	return nil
}
