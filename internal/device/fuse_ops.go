package device

import (
	"math"
	"math/bits"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// This file compiles lane-local instructions — FP32 arithmetic and compares,
// MUFU, the integer ops, moves, selects and the TID.X/LANEID special
// registers — into micro-op (mop) closures. Each chainable site is compiled
// once, by lowerInstr, into one closure with the thunk signature: it is the
// site's thunk, which stepping runs alone and a fused region runs in its
// body (fusedRegion.fns). Operand shapes are resolved at compile time;
// constant-bank operands are read through the device at closure entry, with
// their modifiers applied, and the inner lane loop touches only per-lane
// registers. The hottest kinds specialize further on operand shape, and a
// mop whose sources are all warp-invariant runs for one lane and broadcasts.
//
// Memory ops, shuffles, HMMA, FP64/FP16, F2F and the wide conversions keep
// hand-written thunks (lower_ops.go), which read their operands through
// the same compiled form (src, lower.go).
//
// Correctness contract: a closure must produce the same register and
// predicate bits as the reference interpreter (executor.lane). It computes
// each lane's value by calling the operation's one definition, the one the
// interpreter calls (add32, mul32, fma32, mufuEval, fmnmx32, ...), and
// reads the modifiers kernelMeta decoded; only operand access and loop
// shape are its own. The differential suites in this package and
// internal/bench hold every tier to the interpreter over the whole corpus.

// chainable reports whether the site at pc compiles to a mop closure rather
// than a hand-written thunk.
func chainable(in *sass.Instr, m *kernelMeta, pc int) bool {
	switch in.Op {
	case sass.OpFADD, sass.OpFADD32I, sass.OpFMUL, sass.OpFMUL32I,
		sass.OpFFMA, sass.OpFFMA32I, sass.OpFSEL, sass.OpFSET,
		sass.OpFSETP, sass.OpISETP, sass.OpFMNMX,
		sass.OpMOV, sass.OpMOV32I, sass.OpIADD, sass.OpIADD3, sass.OpIMAD,
		sass.OpSHL, sass.OpSHR, sass.OpLOP, sass.OpSEL, sass.OpMUFU:
		return true
	case sass.OpI2F, sass.OpF2I, sass.OpFCHK:
		return m.sub[pc] != subWide
	case sass.OpS2R:
		sr := in.Operands[1].SR
		return sr == sass.SRTidX || sr == sass.SRLaneID
	}
	return false
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

// mop is one micro-op, the compile-time description a specialized closure
// is built from.
type mop struct {
	kind    uint8
	sub     uint8 // LOP op / MUFU mode / S2R kind
	ftz     bool
	dst     int32 // -1 when absent or RZ
	a, b, c src[uint32]
	// setpCore holds the predicate side: the predicate destinations pd
	// and pq (-1 when absent or PT), the predicate source ps (SEL
	// selector, FMNMX min, SETP combiner input) and, for SETP and FSET,
	// the compare's outcome set and combiner.
	setpCore
	tbits uint32 // FSET true-result bits
}

// writesNothing reports a mop whose every destination is RZ or PT: the
// site lowers to a no-op.
func (op *mop) writesNothing() bool { return op.dst < 0 && op.pd < 0 && op.pq < 0 }

// regDst maps a register destination to its mop encoding: RZ discards the
// write (-1).
func regDst(r int) int32 {
	if r == sass.RZ {
		return -1
	}
	return int32(r)
}

// predDst maps a predicate-destination register to its mop encoding: PT
// discards the write (-1).
func predDst(p int) int32 {
	if p == sass.PT {
		return -1
	}
	return int32(p)
}

// buildMop resolves one chainable instruction into its mop.
func buildMop(in *sass.Instr, m *kernelMeta, pc int) mop {
	ops := in.Operands
	ftz := m.ftz[pc]
	f32 := func(i int, ftz bool) src[uint32] { return lowerSrc[uint32](&ops[i], fpval.FP32, ftz) }
	i32 := func(i int) src[uint32] { return lowerSrc[uint32](&ops[i], fmtInt, false) }
	// Unused sources and the predicate source read as warp-invariant.
	none := src[uint32]{reg: -1}
	op := mop{ftz: ftz, dst: -1, a: none, b: none, c: none, setpCore: setpCore{pd: -1, pq: -1, ps: srcP{pred: sass.PT}}}
	switch in.Op {
	case sass.OpFADD, sass.OpFADD32I:
		op.kind = mopFADD
		op.a, op.b = f32(1, ftz), f32(2, ftz)
	case sass.OpFMUL, sass.OpFMUL32I:
		op.kind = mopFMUL
		op.a, op.b = f32(1, ftz), f32(2, ftz)
	case sass.OpFFMA, sass.OpFFMA32I:
		op.kind = mopFFMA
		op.a, op.b, op.c = f32(1, ftz), f32(2, ftz), f32(3, ftz)
	case sass.OpMUFU:
		op.kind = mopMUFU
		op.sub = m.sub[pc]
		op.a = f32(1, false)
	case sass.OpFSEL, sass.OpSEL:
		// Both select raw bits between two sources on a predicate.
		op.kind = mopSEL
		op.a, op.b = f32(1, false), f32(2, false)
		op.ps = lowerSrcP(&ops[3])
	case sass.OpFSET:
		op.kind = mopFSET
		op.a, op.b = f32(1, ftz), f32(2, ftz)
		op.want = setMasksOf(m.cmp[pc])
		op.tbits = ^uint32(0)
		if m.sub[pc] == subWide { // .BF: boolean-float result
			op.tbits = math.Float32bits(1)
		}
	case sass.OpFSETP:
		op.kind = mopFSETP
		op.a, op.b = f32(2, ftz), f32(3, ftz)
		op.setpCore = lowerSetpCore(in, m, pc)
		return op
	case sass.OpISETP:
		op.kind = mopISETP
		op.a, op.b = i32(2), i32(3)
		op.setpCore = lowerSetpCore(in, m, pc)
		return op
	case sass.OpFMNMX:
		op.kind = mopFMNMX
		op.a, op.b = f32(1, ftz), f32(2, ftz)
		op.ps = lowerSrcP(&ops[3])
	case sass.OpMOV, sass.OpMOV32I:
		op.kind = mopMOV
		op.a = f32(1, false)
	case sass.OpIADD:
		op.kind = mopIADD
		op.a, op.b = i32(1), i32(2)
	case sass.OpIADD3:
		op.kind = mopIADD3
		op.a, op.b, op.c = i32(1), i32(2), i32(3)
	case sass.OpIMAD:
		op.kind = mopIMAD
		op.a, op.b, op.c = i32(1), i32(2), i32(3)
	case sass.OpSHL:
		op.kind = mopSHL
		op.a, op.b = i32(1), i32(2)
	case sass.OpSHR:
		op.kind = mopSHR
		op.a, op.b = i32(1), i32(2)
	case sass.OpLOP:
		op.kind = mopLOP
		op.sub = m.sub[pc]
		op.a, op.b = i32(1), i32(2)
	case sass.OpI2F:
		op.kind = mopI2F
		op.a = i32(1)
	case sass.OpF2I:
		op.kind = mopF2I
		op.a = f32(1, false)
	case sass.OpS2R:
		op.kind = mopS2R
		op.sub = s2rChainLane
		if ops[1].SR == sass.SRTidX {
			op.sub = s2rChainTid
		}
	case sass.OpFCHK:
		op.kind = mopFCHK
		op.pd = predDst(int(ops[0].Pred))
		op.a, op.b = f32(1, false), f32(2, false)
		return op
	}
	op.dst = regDst(ops[0].Reg)
	return op
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
func plainReg(s *src[uint32]) bool { return s.reg >= 0 && s.neg == 0 && s.abs == 0 && !s.ftz }

// plainRegI is plainReg for integer-source semantics.
func plainRegI(s *src[uint32]) bool { return s.reg >= 0 && !s.ineg }

// compileMop builds the site's thunk from its mop. A mop that reads no
// per-lane state writes the same value to every executing lane, so its
// thunk runs the lane loop for one lane and broadcasts that lane's result.
func compileMop(m *mop) thunk {
	fn := compileLanes(m)
	if !m.uniform() {
		return fn
	}
	d := int(m.dst)
	return func(ex *executor, w *Warp, exec uint32) {
		if exec == 0 {
			return
		}
		l := bits.TrailingZeros32(exec)
		fn(ex, w, 1<<uint(l))
		broadcast32(w, d, w.regs[l][d], exec)
	}
}

// uniform reports a register-writing mop whose sources are all
// warp-invariant: no register or predicate read, no per-lane special
// register.
func (op *mop) uniform() bool {
	return op.dst >= 0 && op.kind != mopS2R &&
		op.a.reg < 0 && op.b.reg < 0 && op.c.reg < 0 && op.ps.pred == sass.PT
}

// compileLanes builds the specialized lane-loop closure for one micro-op.
// Each closure resolves its warp-invariant operands once at entry and runs
// a tight lane loop over the exec mask; the lane accessors reduce to a
// register load plus baked sign masks. The hottest kinds specialize one
// step further, on operand shape: bare-register and warp-invariant operands
// get dedicated closures whose lane loops carry no shape branches at all,
// and a full exec mask walks register columns.
func compileLanes(m *mop) thunk {
	op := *m
	switch op.kind {
	case mopFFMA:
		if !op.ftz && plainReg(&op.a) {
			a, d := op.a.reg, op.dst
			switch {
			case plainReg(&op.b) && plainReg(&op.c):
				b, c := op.b.reg, op.c.reg
				return func(ex *executor, w *Warp, exec uint32) {
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
				return func(ex *executor, w *Warp, exec uint32) {
					fc := math.Float32frombits(op.c.entry(ex.d))
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
				return func(ex *executor, w *Warp, exec uint32) {
					fb := math.Float32frombits(op.b.entry(ex.d))
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
		return func(ex *executor, w *Warp, exec uint32) {
			ea, eb, ec := op.a.entry(ex.d), op.b.entry(ex.d), op.c.entry(ex.d)
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
				return func(ex *executor, w *Warp, exec uint32) {
					if exec == fullExec {
						st := w.stride
						n := (WarpSize-1)*st + 1
						pd, pa, pb := laneCol(w, d, n), laneCol(w, a, n), laneCol(w, b, n)
						for base := uint(0); base < uint(len(pd)); base += uint(st) {
							pd[base] = math.Float32bits(add32(math.Float32frombits(pa[base]), math.Float32frombits(pb[base])))
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[d] = math.Float32bits(add32(math.Float32frombits(r[a]), math.Float32frombits(r[b])))
					}
				}
			}
			if op.b.reg < 0 {
				return func(ex *executor, w *Warp, exec uint32) {
					fb := math.Float32frombits(op.b.entry(ex.d))
					if exec == fullExec {
						st := w.stride
						n := (WarpSize-1)*st + 1
						pd, pa := laneCol(w, d, n), laneCol(w, a, n)
						for base := uint(0); base < uint(len(pd)); base += uint(st) {
							pd[base] = math.Float32bits(add32(math.Float32frombits(pa[base]), fb))
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[d] = math.Float32bits(add32(math.Float32frombits(r[a]), fb))
					}
				}
			}
		}
		return func(ex *executor, w *Warp, exec uint32) {
			ea, eb := op.a.entry(ex.d), op.b.entry(ex.d)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = out32(add32(laneF32(&op.a, r, ea), laneF32(&op.b, r, eb)), op.ftz)
			}
		}
	case mopFMUL:
		if !op.ftz && plainReg(&op.a) {
			a, d := op.a.reg, op.dst
			if plainReg(&op.b) {
				b := op.b.reg
				return func(ex *executor, w *Warp, exec uint32) {
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
				return func(ex *executor, w *Warp, exec uint32) {
					fb := math.Float32frombits(op.b.entry(ex.d))
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
		return func(ex *executor, w *Warp, exec uint32) {
			ea, eb := op.a.entry(ex.d), op.b.entry(ex.d)
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
				return func(ex *executor, w *Warp, exec uint32) {
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
				return func(ex *executor, w *Warp, exec uint32) {
					eb := op.b.entry(ex.d)
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
		return func(ex *executor, w *Warp, exec uint32) {
			ea, eb := op.a.entry(ex.d), op.b.entry(ex.d)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = laneI32(&op.a, r, ea) + laneI32(&op.b, r, eb)
			}
		}
	case mopIADD3:
		return func(ex *executor, w *Warp, exec uint32) {
			ea, eb, ec := op.a.entry(ex.d), op.b.entry(ex.d), op.c.entry(ex.d)
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
				return func(ex *executor, w *Warp, exec uint32) {
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
				return func(ex *executor, w *Warp, exec uint32) {
					ec := op.c.entry(ex.d)
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
		if plainRegI(&op.a) && op.b.reg < 0 {
			a, d := op.a.reg, op.dst
			if plainRegI(&op.c) {
				c := op.c.reg
				return func(ex *executor, w *Warp, exec uint32) {
					eb := op.b.entry(ex.d)
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[d] = r[a]*eb + r[c]
					}
				}
			}
			if op.c.reg < 0 {
				// Address arithmetic: IMAD R, R, imm|c[..], imm|c[..]|RZ.
				return func(ex *executor, w *Warp, exec uint32) {
					eb, ec := op.b.entry(ex.d), op.c.entry(ex.d)
					if exec == fullExec {
						st := w.stride
						n := (WarpSize-1)*st + 1
						pd, pa := laneCol(w, d, n), laneCol(w, a, n)
						for base := uint(0); base < uint(len(pd)); base += uint(st) {
							pd[base] = pa[base]*eb + ec
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[d] = r[a]*eb + ec
					}
				}
			}
		}
		return func(ex *executor, w *Warp, exec uint32) {
			ea, eb, ec := op.a.entry(ex.d), op.b.entry(ex.d), op.c.entry(ex.d)
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
				return func(ex *executor, w *Warp, exec uint32) {
					var o outcomes
					if exec == fullExec {
						st := w.stride
						n := (WarpSize-1)*st + 1
						pa, pb := laneCol(w, a, n), laneCol(w, b, n)
						for base := uint(0); base < uint(len(pa)); base += uint(st) {
							o = o.push(outcome(int32(pa[base]), int32(pb[base]), WarpSize-1))
						}
						op.write(w, exec, o)
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						l := bits.TrailingZeros32(msk)
						r := w.regs[l]
						o = o.or(outcome(int32(r[a]), int32(r[b]), l))
					}
					op.write(w, exec, o)
				}
			}
			if op.b.reg < 0 {
				return func(ex *executor, w *Warp, exec uint32) {
					eb := int32(op.b.entry(ex.d))
					var o outcomes
					if exec == fullExec {
						st := w.stride
						pa := laneCol(w, a, (WarpSize-1)*st+1)
						for base := uint(0); base < uint(len(pa)); base += uint(st) {
							o = o.push(outcome(int32(pa[base]), eb, WarpSize-1))
						}
						op.write(w, exec, o)
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						l := bits.TrailingZeros32(msk)
						o = o.or(outcome(int32(w.regs[l][a]), eb, l))
					}
					op.write(w, exec, o)
				}
			}
		}
		return func(ex *executor, w *Warp, exec uint32) {
			ea, eb := op.a.entry(ex.d), op.b.entry(ex.d)
			var o outcomes
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				r := w.regs[l]
				o = o.or(outcome(int32(laneI32(&op.a, r, ea)), int32(laneI32(&op.b, r, eb)), l))
			}
			op.write(w, exec, o)
		}
	case mopFSETP:
		if plainReg(&op.a) {
			a := op.a.reg
			if plainReg(&op.b) {
				b := op.b.reg
				return func(ex *executor, w *Warp, exec uint32) {
					var o outcomes
					if exec == fullExec {
						st := w.stride
						n := (WarpSize-1)*st + 1
						pa, pb := laneCol(w, a, n), laneCol(w, b, n)
						for base := uint(0); base < uint(len(pa)); base += uint(st) {
							o = o.push(outcome(math.Float32frombits(pa[base]), math.Float32frombits(pb[base]), WarpSize-1))
						}
						op.write(w, exec, o)
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						l := bits.TrailingZeros32(msk)
						r := w.regs[l]
						o = o.or(outcome(math.Float32frombits(r[a]), math.Float32frombits(r[b]), l))
					}
					op.write(w, exec, o)
				}
			}
			if op.b.reg < 0 {
				return func(ex *executor, w *Warp, exec uint32) {
					fb := math.Float32frombits(op.b.entry(ex.d))
					var o outcomes
					if exec == fullExec {
						st := w.stride
						pa := laneCol(w, a, (WarpSize-1)*st+1)
						for base := uint(0); base < uint(len(pa)); base += uint(st) {
							o = o.push(outcome(math.Float32frombits(pa[base]), fb, WarpSize-1))
						}
						op.write(w, exec, o)
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						l := bits.TrailingZeros32(msk)
						o = o.or(outcome(math.Float32frombits(w.regs[l][a]), fb, l))
					}
					op.write(w, exec, o)
				}
			}
		}
		return func(ex *executor, w *Warp, exec uint32) {
			ea, eb := op.a.entry(ex.d), op.b.entry(ex.d)
			var o outcomes
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				r := w.regs[l]
				o = o.or(outcome(laneF32(&op.a, r, ea), laneF32(&op.b, r, eb), l))
			}
			op.write(w, exec, o)
		}
	case mopMOV:
		if plainReg(&op.a) {
			a, d := op.a.reg, op.dst
			return func(ex *executor, w *Warp, exec uint32) {
				for msk := exec; msk != 0; msk &= msk - 1 {
					r := w.regs[bits.TrailingZeros32(msk)]
					r[d] = r[a]
				}
			}
		}
		if op.a.reg < 0 {
			d := op.dst
			return func(ex *executor, w *Warp, exec uint32) {
				ea := op.a.entry(ex.d)
				for msk := exec; msk != 0; msk &= msk - 1 {
					w.regs[bits.TrailingZeros32(msk)][d] = ea
				}
			}
		}
		return func(ex *executor, w *Warp, exec uint32) {
			ea := op.a.entry(ex.d)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = laneV32(&op.a, r, ea)
			}
		}
	case mopSHL:
		return func(ex *executor, w *Warp, exec uint32) {
			ea, eb := op.a.entry(ex.d), op.b.entry(ex.d)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = laneI32(&op.a, r, ea) << (laneI32(&op.b, r, eb) & 31)
			}
		}
	case mopSHR:
		return func(ex *executor, w *Warp, exec uint32) {
			ea, eb := op.a.entry(ex.d), op.b.entry(ex.d)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = laneI32(&op.a, r, ea) >> (laneI32(&op.b, r, eb) & 31)
			}
		}
	case mopLOP:
		switch op.sub {
		case subLopOr:
			return func(ex *executor, w *Warp, exec uint32) {
				ea, eb := op.a.entry(ex.d), op.b.entry(ex.d)
				for msk := exec; msk != 0; msk &= msk - 1 {
					r := w.regs[bits.TrailingZeros32(msk)]
					r[op.dst] = laneI32(&op.a, r, ea) | laneI32(&op.b, r, eb)
				}
			}
		case subLopXor:
			return func(ex *executor, w *Warp, exec uint32) {
				ea, eb := op.a.entry(ex.d), op.b.entry(ex.d)
				for msk := exec; msk != 0; msk &= msk - 1 {
					r := w.regs[bits.TrailingZeros32(msk)]
					r[op.dst] = laneI32(&op.a, r, ea) ^ laneI32(&op.b, r, eb)
				}
			}
		default:
			return func(ex *executor, w *Warp, exec uint32) {
				ea, eb := op.a.entry(ex.d), op.b.entry(ex.d)
				for msk := exec; msk != 0; msk &= msk - 1 {
					r := w.regs[bits.TrailingZeros32(msk)]
					r[op.dst] = laneI32(&op.a, r, ea) & laneI32(&op.b, r, eb)
				}
			}
		}
	case mopSEL:
		return func(ex *executor, w *Warp, exec uint32) {
			ea, eb, sel := op.a.entry(ex.d), op.b.entry(ex.d), op.ps.mask(w)
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				r := w.regs[l]
				if sel>>uint(l)&1 != 0 {
					r[op.dst] = laneV32(&op.a, r, ea)
				} else {
					r[op.dst] = laneV32(&op.b, r, eb)
				}
			}
		}
	case mopFMNMX:
		return func(ex *executor, w *Warp, exec uint32) {
			ea, eb, minP := op.a.entry(ex.d), op.b.entry(ex.d), op.ps.mask(w)
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				r := w.regs[l]
				v := fmnmx32(laneF32(&op.a, r, ea), laneF32(&op.b, r, eb), minP>>uint(l)&1 != 0)
				r[op.dst] = out32(v, op.ftz)
			}
		}
	case mopFSET:
		return func(ex *executor, w *Warp, exec uint32) {
			ea, eb := op.a.entry(ex.d), op.b.entry(ex.d)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				o := outcome(laneF32(&op.a, r, ea), laneF32(&op.b, r, eb), 0)
				r[op.dst] = op.tbits & -op.want.holds(1, o)
			}
		}
	case mopMUFU:
		return func(ex *executor, w *Warp, exec uint32) {
			ea := op.a.entry(ex.d)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = mufuEval(op.sub, laneV32(&op.a, r, ea))
			}
		}
	case mopI2F:
		return func(ex *executor, w *Warp, exec uint32) {
			ea := op.a.entry(ex.d)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = math.Float32bits(float32(int32(laneI32(&op.a, r, ea))))
			}
		}
	case mopF2I:
		return func(ex *executor, w *Warp, exec uint32) {
			ea := op.a.entry(ex.d)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[op.dst] = uint32(truncToI32(float64(laneF32(&op.a, r, ea))))
			}
		}
	case mopS2R:
		if op.sub == s2rChainTid {
			return func(ex *executor, w *Warp, exec uint32) {
				base := uint32(w.WarpInBlock * WarpSize)
				for msk := exec; msk != 0; msk &= msk - 1 {
					l := bits.TrailingZeros32(msk)
					w.regs[l][op.dst] = base + uint32(l)
				}
			}
		}
		return func(ex *executor, w *Warp, exec uint32) {
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				w.regs[l][op.dst] = uint32(l)
			}
		}
	case mopFCHK:
		return func(ex *executor, w *Warp, exec uint32) {
			ea, eb := op.a.entry(ex.d), op.b.entry(ex.d)
			var c uint32
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				r := w.regs[l]
				c |= b2u(fchkSpecial(laneF32(&op.a, r, ea), laneF32(&op.b, r, eb))) << uint(l)
			}
			w.writePred(op.pd, exec, c)
		}
	}
	panic("device: unreachable mop kind")
}
