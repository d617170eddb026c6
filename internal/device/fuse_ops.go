package device

import (
	"math"
	"math/bits"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// This file implements fused chain bodies: straight-line runs of lane-local
// instructions compiled into specialized micro-op (mop) closures. Where the
// lowered executor re-resolves operand shapes through a per-PC thunk table on
// every dynamic instruction, a chain resolves them once at fuse time: each mop
// compiles to a closure specialized on its operand shapes, warp-invariant
// operands (constant-bank words) are prefetched once per chain execution, and
// the closure's inner lane loop touches only per-lane registers.
//
// Only lane-local operations may join a chain: with no cross-lane reads the
// closure sequence is observationally identical to per-instruction stepping.
// Memory ops, shuffles, HMMA and uniform-broadcast sites stay as thunk
// segments.
//
// Correctness contract: a chain must produce bit-identical register,
// predicate and statistics state to stepping the same PCs through the
// lowered thunks. The full-corpus differential test in internal/bench runs
// lowered vs fused over every program and asserts byte-identical reports.

// Fusion classification of one instruction site.
const (
	// fuseThunk keeps the lowered thunk (instruction-major segment).
	fuseThunk = iota
	// fuseChain appends the site to a fused chain of compiled micro-ops.
	fuseChain
	// fuseSkip elides the site entirely (no-op lowering): bulk accounting
	// covers its cost and the body has no observable effect.
	fuseSkip
)

// classifyFuse decides how one region-body instruction participates in
// fusion, reusing the lowering pass's per-PC class instead of re-deriving
// operand shapes.
func classifyFuse(in *sass.Instr, m *kernelMeta, lk *loweredKernel, pc int) int {
	if in.Op == sass.OpNOP {
		return fuseSkip
	}
	switch lk.class[pc] {
	case lowClassNop:
		return fuseSkip
	case lowClassUniform, lowClassControl:
		// Uniform sites compute once and broadcast — already cheaper than a
		// per-lane chain slot. Control flow never enters a region body.
		return fuseThunk
	}
	switch in.Op {
	case sass.OpFADD, sass.OpFADD32I, sass.OpFMUL, sass.OpFMUL32I,
		sass.OpFFMA, sass.OpFFMA32I, sass.OpFSEL, sass.OpFSET,
		sass.OpFSETP, sass.OpISETP, sass.OpFMNMX,
		sass.OpMOV, sass.OpMOV32I, sass.OpIADD, sass.OpIADD3, sass.OpIMAD,
		sass.OpSHL, sass.OpSHR, sass.OpLOP, sass.OpSEL:
		return fuseChain
	case sass.OpMUFU:
		if in.Is64H() {
			return fuseThunk
		}
		return fuseChain
	case sass.OpI2F, sass.OpF2I, sass.OpFCHK:
		if m.sub[pc] == subWide {
			return fuseThunk
		}
		return fuseChain
	case sass.OpS2R:
		// Non-uniform S2R is SR_TID.X or SR_LANEID (everything else lowered
		// to a uniform broadcast).
		return fuseChain
	}
	return fuseThunk
}

// mop kinds.
const (
	mopFADD uint8 = iota
	mopFMUL
	mopFFMA
	mopMUFU
	mopSEL
	mopFSET
	mopFSETP
	mopISETP
	mopFMNMX
	mopMOV
	mopIADD
	mopIADD3
	mopIMAD
	mopSHL
	mopSHR
	mopLOP
	mopI2F
	mopF2I
	mopS2R
	mopFCHK
)

// S2R chain kinds.
const (
	s2rChainTid uint8 = iota
	s2rChainLane
)

// mopSrc is a chain operand with its access class resolved at fuse time:
// a per-lane register (sign masks and FTZ baked), a prefetched
// warp-invariant slot, or a fully baked constant.
type mopSrc struct {
	reg      int32 // >= 0: register index into the lane row
	uni      int32 // >= 0: index into the prefetched uniform buffer
	neg, abs uint32
	ftz      bool
	ineg     bool   // integer two's-complement negation (srcI semantics)
	bits     uint32 // baked value when reg < 0 && uni < 0
}

// entry resolves the operand's warp-invariant value at closure entry: the
// prefetched uniform slot or the baked constant. Meaningless (and unused) for
// register operands.
func (s *mopSrc) entry(uni []uint32) uint32 {
	if s.uni >= 0 {
		return uni[s.uni]
	}
	return s.bits
}

// laneV32 reads an operand for one lane as raw 32-bit value with FP sign
// masks applied; ev is the entry-resolved value for non-register operands.
func laneV32(s *mopSrc, r []uint32, ev uint32) uint32 {
	if s.reg >= 0 {
		b := (r[s.reg] &^ s.abs) ^ s.neg
		if s.ftz {
			b = fpval.Flush32(b)
		}
		return b
	}
	return ev
}

func laneF32(s *mopSrc, r []uint32, ev uint32) float32 {
	return math.Float32frombits(laneV32(s, r, ev))
}

// laneI32 reads an operand with integer-source semantics (Neg negates).
func laneI32(s *mopSrc, r []uint32, ev uint32) uint32 {
	if s.reg >= 0 {
		v := r[s.reg]
		if s.ineg {
			v = uint32(-int32(v))
		}
		return v
	}
	return ev
}

// mop is one fused micro-op, the compile-time description a specialized
// closure is built from. Operand accessors are resolved once per sequence at
// fuse time; execution never re-examines operand shapes.
type mop struct {
	kind    uint8
	sub     uint8 // LOP op / SETP combiner / MUFU mode / S2R kind
	ftz     bool
	dst     int32
	a, b, c mopSrc
	cmpF    func(a, b float64) bool
	cmpI    func(a, b int32) bool
	// pd and pq are predicate destinations (-1 when absent or PT).
	pd, pq int32
	ps     srcP   // predicate source (SEL selector, FMNMX min, SETP combiner input)
	tbits  uint32 // FSET true-result bits
}

// prefetch is a warp-invariant chain operand fetched once per chain
// execution into the executor's uniform buffer.
type prefetch struct {
	isInt bool
	f     src32
	i     srcI
}

// mopFn is one compiled micro-op: it runs its instruction for every lane in
// exec against the warp, with the chain's prefetched uniform buffer.
type mopFn func(w *Warp, exec uint32, uni []uint32)

// chain is a fused instruction sequence: the compiled closures plus the
// micro-op descriptions they were built from.
type chain struct {
	mops []mop
	fns  []mopFn
	pre  []prefetch
}

// newChain compiles the accumulated micro-ops into their specialized
// closures.
func newChain(mops []mop, pre []prefetch) *chain {
	c := &chain{mops: mops, pre: pre, fns: make([]mopFn, len(mops))}
	for i := range mops {
		c.fns[i] = compileMop(&mops[i])
	}
	return c
}

// chainBuilder accumulates mops for one chain.
type chainBuilder struct {
	mops []mop
	pre  []prefetch
}

// src32 resolves a lowered FP32/raw-bits source into a chain operand.
func (cb *chainBuilder) src32(op *sass.Operand, ftz bool) mopSrc {
	s := lowerSrc32(op, ftz)
	if s.reg >= 0 {
		return mopSrc{reg: int32(s.reg), uni: -1, neg: s.neg, abs: s.abs, ftz: s.ftz}
	}
	if s.cb {
		slot := int32(len(cb.pre))
		cb.pre = append(cb.pre, prefetch{f: s})
		return mopSrc{reg: -1, uni: slot}
	}
	return mopSrc{reg: -1, uni: -1, bits: s.bits}
}

// srcI resolves a lowered integer source into a chain operand.
func (cb *chainBuilder) srcI(op *sass.Operand) mopSrc {
	s := lowerSrcI(op)
	if s.reg >= 0 {
		return mopSrc{reg: int32(s.reg), uni: -1, ineg: s.neg}
	}
	if s.cb {
		slot := int32(len(cb.pre))
		cb.pre = append(cb.pre, prefetch{isInt: true, i: s})
		return mopSrc{reg: -1, uni: slot}
	}
	return mopSrc{reg: -1, uni: -1, bits: s.bits}
}

// predDst maps a predicate-destination register to its chain encoding: PT
// discards the write (-1).
func predDst(p int) int32 {
	if p == sass.PT {
		return -1
	}
	return int32(p)
}

// buildMop appends the mop for one chainable instruction. The per-kind
// operand resolution mirrors lowerInstr's generic (non-uniform, non-RZ)
// paths exactly.
func (cb *chainBuilder) buildMop(in *sass.Instr, m *kernelMeta, pc int) {
	ops := in.Operands
	ftz := m.ftz[pc]
	op := mop{ftz: ftz, dst: -1, pd: -1, pq: -1}
	switch in.Op {
	case sass.OpFADD, sass.OpFADD32I:
		op.kind = mopFADD
		op.dst = int32(ops[0].Reg)
		op.a, op.b = cb.src32(&ops[1], ftz), cb.src32(&ops[2], ftz)
	case sass.OpFMUL, sass.OpFMUL32I:
		op.kind = mopFMUL
		op.dst = int32(ops[0].Reg)
		op.a, op.b = cb.src32(&ops[1], ftz), cb.src32(&ops[2], ftz)
	case sass.OpFFMA, sass.OpFFMA32I:
		op.kind = mopFFMA
		op.dst = int32(ops[0].Reg)
		op.a, op.b, op.c = cb.src32(&ops[1], ftz), cb.src32(&ops[2], ftz), cb.src32(&ops[3], ftz)
	case sass.OpMUFU:
		op.kind = mopMUFU
		op.sub = uint8(mufuMode(in))
		op.dst = int32(ops[0].Reg)
		op.a = cb.src32(&ops[1], false)
	case sass.OpFSEL, sass.OpSEL:
		// Both select raw bits between two sources on a predicate.
		op.kind = mopSEL
		op.dst = int32(ops[0].Reg)
		op.a, op.b = cb.src32(&ops[1], false), cb.src32(&ops[2], false)
		op.ps = lowerSrcP(&ops[3])
	case sass.OpFSET:
		op.kind = mopFSET
		op.dst = int32(ops[0].Reg)
		op.a, op.b = cb.src32(&ops[1], ftz), cb.src32(&ops[2], ftz)
		op.cmpF = fcmpFn(m.cmp[pc])
		op.tbits = ^uint32(0)
		if m.sub[pc] == subWide { // .BF: boolean-float result
			op.tbits = math.Float32bits(1)
		}
	case sass.OpFSETP:
		op.kind = mopFSETP
		op.a, op.b = cb.src32(&ops[2], ftz), cb.src32(&ops[3], ftz)
		op.cmpF = fcmpFn(m.cmp[pc])
		setpTail(&op, in, m, pc)
	case sass.OpISETP:
		op.kind = mopISETP
		op.a, op.b = cb.srcI(&ops[2]), cb.srcI(&ops[3])
		op.cmpI = icmpFn(m.cmp[pc])
		setpTail(&op, in, m, pc)
	case sass.OpFMNMX:
		op.kind = mopFMNMX
		op.dst = int32(ops[0].Reg)
		op.a, op.b = cb.src32(&ops[1], ftz), cb.src32(&ops[2], ftz)
		op.ps = lowerSrcP(&ops[3])
	case sass.OpMOV, sass.OpMOV32I:
		op.kind = mopMOV
		op.dst = int32(ops[0].Reg)
		op.a = cb.src32(&ops[1], false)
	case sass.OpIADD:
		op.kind = mopIADD
		op.dst = int32(ops[0].Reg)
		op.a, op.b = cb.srcI(&ops[1]), cb.srcI(&ops[2])
	case sass.OpIADD3:
		op.kind = mopIADD3
		op.dst = int32(ops[0].Reg)
		op.a, op.b, op.c = cb.srcI(&ops[1]), cb.srcI(&ops[2]), cb.srcI(&ops[3])
	case sass.OpIMAD:
		op.kind = mopIMAD
		op.dst = int32(ops[0].Reg)
		op.a, op.b, op.c = cb.srcI(&ops[1]), cb.srcI(&ops[2]), cb.srcI(&ops[3])
	case sass.OpSHL:
		op.kind = mopSHL
		op.dst = int32(ops[0].Reg)
		op.a, op.b = cb.srcI(&ops[1]), cb.srcI(&ops[2])
	case sass.OpSHR:
		op.kind = mopSHR
		op.dst = int32(ops[0].Reg)
		op.a, op.b = cb.srcI(&ops[1]), cb.srcI(&ops[2])
	case sass.OpLOP:
		op.kind = mopLOP
		op.sub = m.sub[pc]
		op.dst = int32(ops[0].Reg)
		op.a, op.b = cb.srcI(&ops[1]), cb.srcI(&ops[2])
	case sass.OpI2F:
		op.kind = mopI2F
		op.dst = int32(ops[0].Reg)
		op.a = cb.srcI(&ops[1])
	case sass.OpF2I:
		op.kind = mopF2I
		op.dst = int32(ops[0].Reg)
		op.a = cb.src32(&ops[1], false)
	case sass.OpS2R:
		op.kind = mopS2R
		op.dst = int32(ops[0].Reg)
		op.sub = s2rChainLane
		if ops[1].SR == sass.SRTidX {
			op.sub = s2rChainTid
		}
	case sass.OpFCHK:
		op.kind = mopFCHK
		op.pd = predDst(ops[0].Pred)
		op.a, op.b = cb.src32(&ops[1], false), cb.src32(&ops[2], false)
	}
	if (op.kind == mopFCHK || op.kind == mopFSETP || op.kind == mopISETP) && emptySetp(&op) {
		// Every write was PT; nothing observable remains.
		// The caller still accounts the instruction via bulk region stats.
		return
	}
	cb.mops = append(cb.mops, op)
}

// setpTail resolves the shared SETP predicate-write tail (pd, pq, combiner,
// combiner input). A SETP that writes only PT vanishes: buildMop's caller
// still accounts the instruction.
func setpTail(op *mop, in *sass.Instr, m *kernelMeta, pc int) {
	core := lowerSetpCore(in, m, pc)
	op.sub = core.comb
	op.ps = core.pc
	op.pd = predDst(core.pd)
	if core.pq >= 0 {
		op.pq = predDst(core.pq)
	}
}

// emptySetp reports whether a just-built SETP mop would write nothing.
func emptySetp(op *mop) bool { return op.pd < 0 && op.pq < 0 }

// runChain executes one fused chain for the executing lanes: prefetch the
// warp-invariant operands once, then run each compiled micro-op closure.
func (ex *executor) runChain(w *Warp, c *chain, exec uint32) {
	uni := ex.uniBuf
	for i := range c.pre {
		p := &c.pre[i]
		if p.isInt {
			uni[i] = p.i.fetch(ex.d)
		} else {
			uni[i] = p.f.fetch(ex.d)
		}
	}
	for _, fn := range c.fns {
		fn(w, exec, uni)
	}
}

// laneCol reslices the warp's flat lane-major register file into one
// register's column: index l*stride is lane l's slot of register r. All
// columns of one loop are cut to the same length n = (WarpSize-1)*stride+1
// — the last valid index plus one — so a loop bounded by base < len(col)
// proves every column access in range and the compiler drops the per-lane
// bounds checks (verified with -gcflags=-d=ssa/check_bce).
func laneCol(w *Warp, r int32, n int) []uint32 {
	c := w.backing[int(r):]
	return c[:n]
}

// plainReg reports whether an FP operand is a bare per-lane register read —
// no sign masks, no flush — so a specialized closure can load r[reg]
// directly.
func plainReg(s *mopSrc) bool { return s.reg >= 0 && s.neg == 0 && s.abs == 0 && !s.ftz }

// plainRegI is plainReg for integer-source semantics.
func plainRegI(s *mopSrc) bool { return s.reg >= 0 && !s.ineg }

// compileMop builds the specialized closure for one micro-op. Each closure
// resolves its warp-invariant operands once at entry and runs a tight lane
// loop over the exec mask; the lane accessors reduce to a register load plus
// baked sign masks, exactly like the lowered thunk bodies but without the
// per-PC dispatch around them. The hottest kinds specialize one step
// further, on operand shape: bare-register and warp-invariant operands get
// dedicated closures whose lane loops carry no shape branches at all.
func compileMop(m *mop) mopFn {
	op := *m
	switch op.kind {
	case mopFFMA:
		if !op.ftz && plainReg(&op.a) {
			a, d := op.a.reg, op.dst
			switch {
			case plainReg(&op.b) && plainReg(&op.c):
				b, c := op.b.reg, op.c.reg
				return func(w *Warp, exec uint32, uni []uint32) {
					if exec == fullExec {
						st := w.stride
						n := (WarpSize-1)*st + 1
						pd, pa, pb, pc := laneCol(w, d, n), laneCol(w, a, n), laneCol(w, b, n), laneCol(w, c, n)
						for base := uint(0); base < uint(len(pd)); base += uint(st) {
							pd[base] = math.Float32bits(fma32(math.Float32frombits(pa[base]), math.Float32frombits(pb[base]), math.Float32frombits(pc[base])))
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[d] = math.Float32bits(fma32(math.Float32frombits(r[a]), math.Float32frombits(r[b]), math.Float32frombits(r[c])))
					}
				}
			case plainReg(&op.b) && op.c.reg < 0:
				b := op.b.reg
				return func(w *Warp, exec uint32, uni []uint32) {
					fc := math.Float32frombits(op.c.entry(uni))
					if exec == fullExec {
						st := w.stride
						n := (WarpSize-1)*st + 1
						pd, pa, pb := laneCol(w, d, n), laneCol(w, a, n), laneCol(w, b, n)
						for base := uint(0); base < uint(len(pd)); base += uint(st) {
							pd[base] = math.Float32bits(fma32(math.Float32frombits(pa[base]), math.Float32frombits(pb[base]), fc))
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[d] = math.Float32bits(fma32(math.Float32frombits(r[a]), math.Float32frombits(r[b]), fc))
					}
				}
			case op.b.reg < 0 && plainReg(&op.c):
				c := op.c.reg
				return func(w *Warp, exec uint32, uni []uint32) {
					fb := math.Float32frombits(op.b.entry(uni))
					if exec == fullExec {
						st := w.stride
						n := (WarpSize-1)*st + 1
						pd, pa, pc := laneCol(w, d, n), laneCol(w, a, n), laneCol(w, c, n)
						for base := uint(0); base < uint(len(pd)); base += uint(st) {
							pd[base] = math.Float32bits(fma32(math.Float32frombits(pa[base]), fb, math.Float32frombits(pc[base])))
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[d] = math.Float32bits(fma32(math.Float32frombits(r[a]), fb, math.Float32frombits(r[c])))
					}
				}
			}
		}
		return func(w *Warp, exec uint32, uni []uint32) {
			ea, eb, ec := op.a.entry(uni), op.b.entry(uni), op.c.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = out32(fma32(laneF32(&op.a, r, ea), laneF32(&op.b, r, eb), laneF32(&op.c, r, ec)), op.ftz)
			}
		}
	case mopFADD:
		if !op.ftz && plainReg(&op.a) {
			a, d := op.a.reg, op.dst
			if plainReg(&op.b) {
				b := op.b.reg
				return func(w *Warp, exec uint32, uni []uint32) {
					if exec == fullExec {
						st := w.stride
						n := (WarpSize-1)*st + 1
						pd, pa, pb := laneCol(w, d, n), laneCol(w, a, n), laneCol(w, b, n)
						for base := uint(0); base < uint(len(pd)); base += uint(st) {
							pd[base] = math.Float32bits(math.Float32frombits(pa[base]) + math.Float32frombits(pb[base]))
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[d] = math.Float32bits(math.Float32frombits(r[a]) + math.Float32frombits(r[b]))
					}
				}
			}
			if op.b.reg < 0 {
				return func(w *Warp, exec uint32, uni []uint32) {
					fb := math.Float32frombits(op.b.entry(uni))
					if exec == fullExec {
						st := w.stride
						n := (WarpSize-1)*st + 1
						pd, pa := laneCol(w, d, n), laneCol(w, a, n)
						for base := uint(0); base < uint(len(pd)); base += uint(st) {
							pd[base] = math.Float32bits(math.Float32frombits(pa[base]) + fb)
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[d] = math.Float32bits(math.Float32frombits(r[a]) + fb)
					}
				}
			}
		}
		return func(w *Warp, exec uint32, uni []uint32) {
			ea, eb := op.a.entry(uni), op.b.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = out32(laneF32(&op.a, r, ea)+laneF32(&op.b, r, eb), op.ftz)
			}
		}
	case mopFMUL:
		if !op.ftz && plainReg(&op.a) {
			a, d := op.a.reg, op.dst
			if plainReg(&op.b) {
				b := op.b.reg
				return func(w *Warp, exec uint32, uni []uint32) {
					if exec == fullExec {
						st := w.stride
						n := (WarpSize-1)*st + 1
						pd, pa, pb := laneCol(w, d, n), laneCol(w, a, n), laneCol(w, b, n)
						for base := uint(0); base < uint(len(pd)); base += uint(st) {
							pd[base] = math.Float32bits(mul32(math.Float32frombits(pa[base]), math.Float32frombits(pb[base])))
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[d] = math.Float32bits(mul32(math.Float32frombits(r[a]), math.Float32frombits(r[b])))
					}
				}
			}
			if op.b.reg < 0 {
				return func(w *Warp, exec uint32, uni []uint32) {
					fb := math.Float32frombits(op.b.entry(uni))
					if exec == fullExec {
						st := w.stride
						n := (WarpSize-1)*st + 1
						pd, pa := laneCol(w, d, n), laneCol(w, a, n)
						for base := uint(0); base < uint(len(pd)); base += uint(st) {
							pd[base] = math.Float32bits(mul32(math.Float32frombits(pa[base]), fb))
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[d] = math.Float32bits(mul32(math.Float32frombits(r[a]), fb))
					}
				}
			}
		}
		return func(w *Warp, exec uint32, uni []uint32) {
			ea, eb := op.a.entry(uni), op.b.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = out32(mul32(laneF32(&op.a, r, ea), laneF32(&op.b, r, eb)), op.ftz)
			}
		}
	case mopIADD:
		if plainRegI(&op.a) {
			a, d := op.a.reg, op.dst
			if plainRegI(&op.b) {
				b := op.b.reg
				return func(w *Warp, exec uint32, uni []uint32) {
					if exec == fullExec {
						st := w.stride
						n := (WarpSize-1)*st + 1
						pd, pa, pb := laneCol(w, d, n), laneCol(w, a, n), laneCol(w, b, n)
						for base := uint(0); base < uint(len(pd)); base += uint(st) {
							pd[base] = pa[base] + pb[base]
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[d] = r[a] + r[b]
					}
				}
			}
			if op.b.reg < 0 {
				return func(w *Warp, exec uint32, uni []uint32) {
					eb := op.b.entry(uni)
					if exec == fullExec {
						st := w.stride
						n := (WarpSize-1)*st + 1
						pd, pa := laneCol(w, d, n), laneCol(w, a, n)
						for base := uint(0); base < uint(len(pd)); base += uint(st) {
							pd[base] = pa[base] + eb
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[d] = r[a] + eb
					}
				}
			}
		}
		return func(w *Warp, exec uint32, uni []uint32) {
			ea, eb := op.a.entry(uni), op.b.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = laneI32(&op.a, r, ea) + laneI32(&op.b, r, eb)
			}
		}
	case mopIADD3:
		return func(w *Warp, exec uint32, uni []uint32) {
			ea, eb, ec := op.a.entry(uni), op.b.entry(uni), op.c.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = laneI32(&op.a, r, ea) + laneI32(&op.b, r, eb) + laneI32(&op.c, r, ec)
			}
		}
	case mopIMAD:
		if plainRegI(&op.a) && plainRegI(&op.b) {
			a, b, d := op.a.reg, op.b.reg, op.dst
			if plainRegI(&op.c) {
				c := op.c.reg
				return func(w *Warp, exec uint32, uni []uint32) {
					if exec == fullExec {
						st := w.stride
						n := (WarpSize-1)*st + 1
						pd, pa, pb, pc := laneCol(w, d, n), laneCol(w, a, n), laneCol(w, b, n), laneCol(w, c, n)
						for base := uint(0); base < uint(len(pd)); base += uint(st) {
							pd[base] = pa[base]*pb[base] + pc[base]
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[d] = r[a]*r[b] + r[c]
					}
				}
			}
			if op.c.reg < 0 {
				return func(w *Warp, exec uint32, uni []uint32) {
					ec := op.c.entry(uni)
					if exec == fullExec {
						st := w.stride
						n := (WarpSize-1)*st + 1
						pd, pa, pb := laneCol(w, d, n), laneCol(w, a, n), laneCol(w, b, n)
						for base := uint(0); base < uint(len(pd)); base += uint(st) {
							pd[base] = pa[base]*pb[base] + ec
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[d] = r[a]*r[b] + ec
					}
				}
			}
		}
		if plainRegI(&op.a) && op.b.reg < 0 && plainRegI(&op.c) {
			a, c, d := op.a.reg, op.c.reg, op.dst
			return func(w *Warp, exec uint32, uni []uint32) {
				eb := op.b.entry(uni)
				for msk := exec; msk != 0; msk &= msk - 1 {
					r := w.regs[bits.TrailingZeros32(msk)]
					r[d] = r[a]*eb + r[c]
				}
			}
		}
		return func(w *Warp, exec uint32, uni []uint32) {
			ea, eb, ec := op.a.entry(uni), op.b.entry(uni), op.c.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = laneI32(&op.a, r, ea)*laneI32(&op.b, r, eb) + laneI32(&op.c, r, ec)
			}
		}
	case mopISETP:
		if plainRegI(&op.a) {
			a := op.a.reg
			if plainRegI(&op.b) {
				b := op.b.reg
				return func(w *Warp, exec uint32, uni []uint32) {
					for msk := exec; msk != 0; msk &= msk - 1 {
						l := bits.TrailingZeros32(msk)
						r := w.regs[l]
						applyChainSetp(w, l, &op, op.cmpI(int32(r[a]), int32(r[b])))
					}
				}
			}
			if op.b.reg < 0 {
				return func(w *Warp, exec uint32, uni []uint32) {
					eb := int32(op.b.entry(uni))
					for msk := exec; msk != 0; msk &= msk - 1 {
						l := bits.TrailingZeros32(msk)
						r := w.regs[l]
						applyChainSetp(w, l, &op, op.cmpI(int32(r[a]), eb))
					}
				}
			}
		}
		return func(w *Warp, exec uint32, uni []uint32) {
			ea, eb := op.a.entry(uni), op.b.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				r := w.regs[l]
				applyChainSetp(w, l, &op, op.cmpI(int32(laneI32(&op.a, r, ea)), int32(laneI32(&op.b, r, eb))))
			}
		}
	case mopFSETP:
		return func(w *Warp, exec uint32, uni []uint32) {
			ea, eb := op.a.entry(uni), op.b.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				r := w.regs[l]
				applyChainSetp(w, l, &op, op.cmpF(float64(laneF32(&op.a, r, ea)), float64(laneF32(&op.b, r, eb))))
			}
		}
	case mopMOV:
		if plainReg(&op.a) {
			a, d := op.a.reg, op.dst
			return func(w *Warp, exec uint32, uni []uint32) {
				for msk := exec; msk != 0; msk &= msk - 1 {
					r := w.regs[bits.TrailingZeros32(msk)]
					r[d] = r[a]
				}
			}
		}
		if op.a.reg < 0 {
			d := op.dst
			return func(w *Warp, exec uint32, uni []uint32) {
				ea := op.a.entry(uni)
				for msk := exec; msk != 0; msk &= msk - 1 {
					w.regs[bits.TrailingZeros32(msk)][d] = ea
				}
			}
		}
		return func(w *Warp, exec uint32, uni []uint32) {
			ea := op.a.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = laneV32(&op.a, r, ea)
			}
		}
	case mopSHL:
		return func(w *Warp, exec uint32, uni []uint32) {
			ea, eb := op.a.entry(uni), op.b.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = laneI32(&op.a, r, ea) << (laneI32(&op.b, r, eb) & 31)
			}
		}
	case mopSHR:
		return func(w *Warp, exec uint32, uni []uint32) {
			ea, eb := op.a.entry(uni), op.b.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = laneI32(&op.a, r, ea) >> (laneI32(&op.b, r, eb) & 31)
			}
		}
	case mopLOP:
		switch op.sub {
		case subLopOr:
			return func(w *Warp, exec uint32, uni []uint32) {
				ea, eb := op.a.entry(uni), op.b.entry(uni)
				for msk := exec; msk != 0; msk &= msk - 1 {
					r := w.regs[bits.TrailingZeros32(msk)]
					r[op.dst] = laneI32(&op.a, r, ea) | laneI32(&op.b, r, eb)
				}
			}
		case subLopXor:
			return func(w *Warp, exec uint32, uni []uint32) {
				ea, eb := op.a.entry(uni), op.b.entry(uni)
				for msk := exec; msk != 0; msk &= msk - 1 {
					r := w.regs[bits.TrailingZeros32(msk)]
					r[op.dst] = laneI32(&op.a, r, ea) ^ laneI32(&op.b, r, eb)
				}
			}
		default:
			return func(w *Warp, exec uint32, uni []uint32) {
				ea, eb := op.a.entry(uni), op.b.entry(uni)
				for msk := exec; msk != 0; msk &= msk - 1 {
					r := w.regs[bits.TrailingZeros32(msk)]
					r[op.dst] = laneI32(&op.a, r, ea) & laneI32(&op.b, r, eb)
				}
			}
		}
	case mopSEL:
		return func(w *Warp, exec uint32, uni []uint32) {
			ea, eb := op.a.entry(uni), op.b.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				r := w.regs[l]
				if op.ps.lane(w, l) {
					r[op.dst] = laneV32(&op.a, r, ea)
				} else {
					r[op.dst] = laneV32(&op.b, r, eb)
				}
			}
		}
	case mopFMNMX:
		return func(w *Warp, exec uint32, uni []uint32) {
			ea, eb := op.a.entry(uni), op.b.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				r := w.regs[l]
				v := fmnmx32(laneF32(&op.a, r, ea), laneF32(&op.b, r, eb), op.ps.lane(w, l))
				r[op.dst] = out32(v, op.ftz)
			}
		}
	case mopFSET:
		return func(w *Warp, exec uint32, uni []uint32) {
			ea, eb := op.a.entry(uni), op.b.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				v := uint32(0)
				if op.cmpF(float64(laneF32(&op.a, r, ea)), float64(laneF32(&op.b, r, eb))) {
					v = op.tbits
				}
				r[op.dst] = v
			}
		}
	case mopMUFU:
		mode := int(op.sub)
		return func(w *Warp, exec uint32, uni []uint32) {
			ea := op.a.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				x := float64(laneF32(&op.a, r, ea))
				r[op.dst] = math.Float32bits(fpval.FlushFloat32(float32(mufuEval(mode, x))))
			}
		}
	case mopI2F:
		return func(w *Warp, exec uint32, uni []uint32) {
			ea := op.a.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = math.Float32bits(float32(int32(laneI32(&op.a, r, ea))))
			}
		}
	case mopF2I:
		return func(w *Warp, exec uint32, uni []uint32) {
			ea := op.a.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = uint32(truncToI32(float64(laneF32(&op.a, r, ea))))
			}
		}
	case mopS2R:
		if op.sub == s2rChainTid {
			return func(w *Warp, exec uint32, uni []uint32) {
				base := uint32(w.WarpInBlock * WarpSize)
				for msk := exec; msk != 0; msk &= msk - 1 {
					l := bits.TrailingZeros32(msk)
					w.regs[l][op.dst] = base + uint32(l)
				}
			}
		}
		return func(w *Warp, exec uint32, uni []uint32) {
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				w.regs[l][op.dst] = uint32(l)
			}
		}
	case mopFCHK:
		return func(w *Warp, exec uint32, uni []uint32) {
			ea, eb := op.a.entry(uni), op.b.entry(uni)
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				r := w.regs[l]
				setChainPred(w, l, op.pd, fchkSpecial(laneF32(&op.a, r, ea), laneF32(&op.b, r, eb)))
			}
		}
	}
	panic("device: unreachable mop kind")
}

// applyChainSetp mirrors setpCore.apply with PT-resolved destinations.
func applyChainSetp(w *Warp, l int, op *mop, c bool) {
	pcv := op.ps.lane(w, l)
	if op.pd >= 0 {
		setChainPred(w, l, op.pd, combinePred(op.sub, c, pcv))
	}
	if op.pq >= 0 {
		setChainPred(w, l, op.pq, combinePred(op.sub, !c, pcv))
	}
}

// setChainPred writes one predicate bit (PT was filtered at fuse time).
func setChainPred(w *Warp, l int, p int32, v bool) {
	if v {
		w.preds[l] |= 1 << uint(p)
	} else {
		w.preds[l] &^= 1 << uint(p)
	}
}
