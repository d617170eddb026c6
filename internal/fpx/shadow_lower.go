package fpx

import (
	"math"
	"math/bits"
	"sync"

	"gpufpx/internal/device"
	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// This file lowers the shadow sanitizer the way analyzer_lower.go lowers the
// analyzer: every shadowed instruction is compiled once, at Instrument time,
// into a shadowSite whose operand readers, FP64 evaluator, cancellation
// shape and report strings are pre-resolved. The per-dynamic-instruction
// path then runs with zero heap allocation when nothing drifts.
//
// The shadow register file itself is a pooled slab structure (the PR 6-8
// recipe): one warpShadow per warp-in-block, 32 lanes of per-register cells,
// never cleared — a cell is live only when its generation tag matches the
// current ⟨launch epoch, block⟩ and its recorded bit pattern still matches
// the register, so reuse across blocks, launches and pool round-trips is
// free. FTZ source flushing is deliberately not mirrored: the shadow keeps
// the subnormal value the flush would discard, which is exactly the
// information loss the sanitizer exists to expose.

// sigThreshold converts "more than sigBits significand bits are noise" into
// a relative-error threshold for a format with mant significand bits.
func sigThreshold(sigBits, mant int) float64 {
	return math.Ldexp(1, sigBits-mant)
}

// shadowCell is one register's shadow backing for one lane: the FP64 value,
// the real register bits it mirrors, the format that wrote it and the
// ⟨epoch, block⟩ generation it is live under.
type shadowCell struct {
	gen  uint64
	val  float64
	bits uint32
	fmt  fpval.Format
}

// warpShadow is one warp's shadow register file.
type warpShadow struct {
	lanes [device.WarpSize][]shadowCell
}

// cell returns the lane's cell for a register, growing the lane's file on
// first contact with a higher register number.
func (ws *warpShadow) cell(lane, reg int) *shadowCell {
	cells := ws.lanes[lane]
	if reg >= len(cells) {
		grown := make([]shadowCell, reg+8)
		copy(grown, cells)
		ws.lanes[lane] = grown
		cells = grown
	}
	return &cells[reg]
}

// warpShadowPool recycles warp shadow files across launches and block
// ranges; stale generation tags make clearing unnecessary.
var warpShadowPool = sync.Pool{New: func() any { return new(warpShadow) }}

// shadowSlabs is a growable set of pooled warp shadow files, indexed by warp
// in block.
type shadowSlabs struct {
	warps []*warpShadow
}

// warp returns (allocating from the pool on first use) the file for one warp
// in block.
func (s *shadowSlabs) warp(i int) *warpShadow {
	if i >= len(s.warps) {
		grown := make([]*warpShadow, i+1)
		copy(grown, s.warps)
		s.warps = grown
	}
	if s.warps[i] == nil {
		s.warps[i] = warpShadowPool.Get().(*warpShadow)
	}
	return s.warps[i]
}

// release returns every file to the pool.
func (s *shadowSlabs) release() {
	for i, ws := range s.warps {
		if ws != nil {
			warpShadowPool.Put(ws)
			s.warps[i] = nil
		}
	}
	s.warps = nil
}

// shadowLaneOps is one lane's captured operand shadow values.
type shadowLaneOps struct {
	v [3]float64
}

// shadowScratch is one warp's operand capture buffer.
type shadowScratch [device.WarpSize]shadowLaneOps

// shadowCand is one warp execution's worst-lane finding candidate — the
// triage output of judge.
type shadowCand struct {
	kind         ShadowKind
	lane         int
	real, shadow float64
	relErr       float64
	lost         int
}

// shadowSite is one sanitizer site compiled at Instrument time.
type shadowSite struct {
	sh *Shadow

	srcs    [3]device.ValSrc
	nsrc    int
	dstReg  int
	fmt     fpval.Format
	addLike bool
	// eval is the FP64 paired execution of the instruction; unused operand
	// slots are zero.
	eval func(a, b, c float64) float64
	// sigThresh is the format's relative-error threshold, resolved once.
	sigThresh float64

	kernel string
	pc     int
	sass   string
	loc    sass.SourceLoc

	counts *locCounts
}

// compileShadowSite lowers one shadowed instruction; nil when the
// instruction has no register destination (defensive — the tracked set
// always does).
func (sh *Shadow) compileShadowSite(kernel string, in *sass.Instr) *shadowSite {
	dstReg, ok := in.DestReg()
	if !ok {
		return nil
	}
	s := &shadowSite{
		sh:     sh,
		dstReg: dstReg,
		kernel: kernel,
		pc:     in.PC,
		sass:   in.String(),
		loc:    in.Loc,
	}
	s.fmt, _ = in.Op.SrcFormat()
	s.sigThresh = sh.sigThresh32
	if s.fmt == fpval.FP16 {
		s.sigThresh = sh.sigThresh16
	}
	switch in.Op {
	case sass.OpFADD, sass.OpFADD32I, sass.OpHADD2:
		s.nsrc, s.addLike = 2, true
		s.eval = func(a, b, _ float64) float64 { return a + b }
	case sass.OpFMUL, sass.OpFMUL32I, sass.OpHMUL2:
		s.nsrc = 2
		s.eval = func(a, b, _ float64) float64 { return a * b }
	case sass.OpFFMA, sass.OpFFMA32I, sass.OpHFMA2:
		s.nsrc, s.addLike = 3, true
		s.eval = math.FMA
	case sass.OpMUFU:
		s.nsrc = 1
		mod := ""
		if len(in.Mods) > 0 {
			mod = in.Mods[0]
		}
		switch mod {
		case "RCP":
			s.eval = func(a, _, _ float64) float64 { return 1 / a }
		case "RSQ":
			s.eval = func(a, _, _ float64) float64 { return 1 / math.Sqrt(a) }
		case "SQRT":
			s.eval = func(a, _, _ float64) float64 { return math.Sqrt(a) }
		case "SIN":
			s.eval = func(a, _, _ float64) float64 { return math.Sin(a) }
		case "COS":
			s.eval = func(a, _, _ float64) float64 { return math.Cos(a) }
		case "EX2":
			s.eval = func(a, _, _ float64) float64 { return math.Exp2(a) }
		case "LG2":
			s.eval = func(a, _, _ float64) float64 { return math.Log2(a) }
		default:
			s.eval = func(a, _, _ float64) float64 { return a }
		}
	default:
		return nil
	}
	for i := 0; i < s.nsrc; i++ {
		s.srcs[i] = device.LowerValSrc(&in.Operands[i+1], s.fmt)
	}
	s.counts = sh.sites.at(kernel, in.PC)
	shadowSites.Add(1)
	return s
}

// gen is the live generation tag for a block in the current launch: stale
// cells from other launches (epoch) or earlier blocks sharing the slab never
// match, so the slab is reused across blocks without clearing.
func (sh *Shadow) gen(block int) uint64 {
	return sh.epoch<<32 | uint64(block+1)
}

// capture resolves every source operand's shadow value for every executing
// lane into the scratch slot, reading live cells where the generation and
// bit pattern still match and promoting (and caching) the real register
// value otherwise. It returns the number of promotions — the resync count.
func (s *shadowSite) capture(ctx *device.InjCtx, ws *warpShadow, gen uint64, slot *shadowScratch) uint64 {
	var resyncs uint64
	for m := ctx.ExecMask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		lo := &slot[l]
		for i := 0; i < s.nsrc; i++ {
			src := &s.srcs[i]
			reg, isReg := src.Reg()
			if !isReg {
				lo.v[i] = src.Val(ctx, l)
				continue
			}
			cell := ws.cell(l, reg)
			raw := src.Bits(ctx, l)
			if cell.gen == gen && cell.bits == raw && cell.fmt == s.fmt {
				lo.v[i] = src.Mod(cell.val)
				continue
			}
			resyncs++
			base := src.Base(ctx, l)
			*cell = shadowCell{gen: gen, val: base, bits: raw, fmt: s.fmt}
			lo.v[i] = src.Mod(base)
		}
	}
	return resyncs
}

// judge runs the paired FP64 execution for every executing lane, updates the
// destination's shadow cells, and reduces the lanes to at most one finding
// candidate (worst kind first, then largest damage; ties keep the lowest
// lane).
func (s *shadowSite) judge(ctx *device.InjCtx, ws *warpShadow, gen uint64, slot *shadowScratch) (best shadowCand, found bool) {
	for m := ctx.ExecMask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		lo := &slot[l]
		shadow := s.eval(lo.v[0], lo.v[1], lo.v[2])
		realBits := ctx.Warp.Reg(l, s.dstReg)
		var real float64
		if s.fmt == fpval.FP16 {
			real = float64(fpval.F16ToFloat32(uint16(realBits)))
		} else {
			real = float64(math.Float32frombits(realBits))
		}
		c, ok := s.classify(shadow, real, lo)
		cellVal := shadow
		if ok && c.kind == KindDivergence {
			// Resync after a divergence: repeating the same structural
			// mismatch at every downstream use adds no information.
			cellVal = real
		}
		*ws.cell(l, s.dstReg) = shadowCell{gen: gen, val: cellVal, bits: realBits, fmt: s.fmt}
		if ok {
			c.lane = l
			if !found || c.kind > best.kind ||
				(c.kind == best.kind && (c.lost > best.lost || (c.lost == best.lost && c.relErr > best.relErr))) {
				best, found = c, true
			}
		}
	}
	return best, found
}

// classify triages one lane's paired execution; ok is false for the
// no-drift case (the overwhelmingly common one).
func (s *shadowSite) classify(shadow, real float64, lo *shadowLaneOps) (shadowCand, bool) {
	realExc := math.IsInf(real, 0) || math.IsNaN(real)
	shExc := math.IsInf(shadow, 0) || math.IsNaN(shadow)
	if realExc != shExc {
		return shadowCand{kind: KindDivergence, real: real, shadow: shadow}, true
	}
	if realExc {
		// Both exceptional: the detector's territory, not drift.
		return shadowCand{}, false
	}
	if s.addLike {
		var t1, t2 float64
		if s.nsrc == 3 {
			t1, t2 = lo.v[0]*lo.v[1], lo.v[2]
		} else {
			t1, t2 = lo.v[0], lo.v[1]
		}
		if t1 != 0 && t2 != 0 && !math.IsInf(t1, 0) && !math.IsInf(t2, 0) {
			bigExp := math.Ilogb(math.Abs(t1))
			if e := math.Ilogb(math.Abs(t2)); e > bigExp {
				bigExp = e
			}
			resExp := -1075 // below every representable exponent: total cancellation
			if shadow != 0 {
				resExp = math.Ilogb(math.Abs(shadow))
			}
			if lost := bigExp - resExp; lost >= s.sh.cfg.CancelBits {
				return shadowCand{
					kind: KindCancellation, real: real, shadow: shadow,
					relErr: relativeError(real, shadow), lost: lost,
				}, true
			}
		}
	}
	relErr := relativeError(real, shadow)
	if relErr > s.sigThresh {
		return shadowCand{
			kind: KindSignificanceLoss, real: real, shadow: shadow,
			relErr: relErr, lost: lostSignificandBits(relErr, s.fmt),
		}, true
	}
	return shadowCand{}, false
}

// relativeError is |real−shadow| / max(|real|,|shadow|); zero when both are
// zero. Finite for finite inputs.
func relativeError(real, shadow float64) float64 {
	denom := math.Abs(real)
	if a := math.Abs(shadow); a > denom {
		denom = a
	}
	if denom == 0 {
		return 0
	}
	return math.Abs(real-shadow) / denom
}

// lostSignificandBits converts a relative error into "bits of the format's
// significand that are noise", clamped to the significand width.
func lostSignificandBits(relErr float64, f fpval.Format) int {
	mant := 24
	if f == fpval.FP16 {
		mant = 11
	}
	if relErr <= 0 {
		return 0
	}
	lost := mant + math.Ilogb(relErr) + 1
	if lost < 0 {
		lost = 0
	}
	if lost > mant {
		lost = mant
	}
	return lost
}

// emit materializes and ships one finding — the under-cap path of the after
// call. The caller has already checked the per-location cap.
func (sh *Shadow) emit(s *shadowSite, c *shadowCand, dev *device.Device) error {
	s.counts.emit(s.sass, s.loc)
	f := Finding{
		Kind:     c.kind,
		Kernel:   s.kernel,
		PC:       s.pc,
		SASS:     s.sass,
		Loc:      s.loc,
		Lane:     c.lane,
		Real:     c.real,
		Shadow:   c.shadow,
		RelErr:   c.relErr,
		LostBits: c.lost,
	}
	sh.findings = append(sh.findings, f)
	if sh.cfg.OnFinding != nil {
		sh.cfg.OnFinding(f)
	}
	sh.report(f)
	return dev.PushPacket(device.Packet{Words: sh.cfg.FindingWords, Payload: f})
}

// before is the injected pre-execution capture: the destination may alias a
// source, so operand shadow values are always resolved before the write.
func (s *shadowSite) before(ctx *device.InjCtx) error {
	sh := s.sh
	wib := ctx.Warp.WarpInBlock
	sh.stats.Resyncs += s.capture(ctx, sh.slabs.warp(wib), sh.gen(ctx.Warp.Block), sh.scratch.at(wib))
	return nil
}

// after runs the paired execution, triages and emits.
func (s *shadowSite) after(ctx *device.InjCtx) error {
	sh := s.sh
	wib := ctx.Warp.WarpInBlock
	cand, ok := s.judge(ctx, sh.slabs.warp(wib), sh.gen(ctx.Warp.Block), sh.scratch.at(wib))
	sh.stats.ShadowedOps++
	if !ok {
		return nil
	}
	sh.stats.bump(cand.kind)
	s.counts.n[cand.kind]++
	if s.counts.emitted < sh.cfg.MaxFindingsPerSite {
		return sh.emit(s, &cand, ctx.Dev)
	}
	return nil
}
