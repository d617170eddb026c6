package device

import (
	"fmt"
	"math"
	"math/bits"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// lowerInstr builds the thunk for one instruction: it is the one switch on
// the opcode that compiles every site, and stepping and fused region bodies
// run the same thunk. Each case resolves the operands it reads to their
// compiled form (src, lower.go) and builds a closure whose lane loop calls
// the operation's one definition (exec.go). Constant-bank operands are read
// through the device at closure entry, with their modifiers applied, so the
// inner lane loop touches only per-lane registers. The hottest FP32 and
// integer forms specialize further on operand shape: bare-register and
// warp-invariant operands get closures whose lane loops carry no shape
// branches at all, and a full exec mask walks register columns.
//
// Two rules bracket the switch. Before it, a site whose every destination
// is RZ or PT lowers to a no-op when it is lane-local (not a memory op,
// SHFL or HMMA): the interpreter computes and discards the result, and the
// computation has no observable effect (detectors read sources via injected
// calls, not via the write). Branch, barrier and exit lower to no-ops too:
// executor.step runs their control flow identically for every tier. After
// the switch, a register-writing lane-local site whose sources are all
// warp-invariant runs for one lane and broadcasts that lane's result.
func lowerInstr(k *sass.Kernel, pc int, m *kernelMeta) thunk {
	in := &k.Instrs[pc]
	if discardsAll(in) {
		return nopThunk
	}
	ops := in.Operands
	d, ftz, sub := ops[0].Reg, m.ftz[pc], m.sub[pc]
	wide := sub == subWide
	f32 := func(i int, ftz bool) src[uint32] { return lowerSrc[uint32](&ops[i], fpval.FP32, ftz) }
	i32 := func(i int) src[uint32] { return lowerSrc[uint32](&ops[i], fmtInt, false) }
	f64 := func(i int) src[uint64] { return lowerSrc[uint64](&ops[i], fpval.FP64, false) }
	f16 := func(i int) src[uint16] { return lowerSrc[uint16](&ops[i], fpval.FP16, false) }

	var fn thunk
	switch in.Op {
	case sass.OpFADD, sass.OpFADD32I:
		fn = lowerFADD(int32(d), f32(1, ftz), f32(2, ftz), ftz)

	case sass.OpFMUL, sass.OpFMUL32I:
		fn = lowerFMUL(int32(d), f32(1, ftz), f32(2, ftz), ftz)

	case sass.OpFFMA, sass.OpFFMA32I:
		fn = lowerFFMA(int32(d), f32(1, ftz), f32(2, ftz), f32(3, ftz), ftz)

	case sass.OpMUFU:
		a := f32(1, false)
		fn = func(ex *executor, w *Warp, exec uint32) {
			ea := a.entry(ex.d)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[d] = mufuEval(sub, laneV32(&a, r, ea))
			}
		}

	case sass.OpDADD:
		fn = lowerF64(d, f64(1), f64(2), src[uint64]{reg: -1}, func(a, b, _ float64) float64 { return add64(a, b) })

	case sass.OpDMUL:
		fn = lowerF64(d, f64(1), f64(2), src[uint64]{reg: -1}, func(a, b, _ float64) float64 { return mul64(a, b) })

	case sass.OpDFMA:
		fn = lowerF64(d, f64(1), f64(2), f64(3), math.FMA)

	case sass.OpFSEL, sass.OpSEL:
		// Both select raw bits between two sources on a predicate.
		a, b, ps := f32(1, false), f32(2, false), lowerSrcP(&ops[3])
		fn = func(ex *executor, w *Warp, exec uint32) {
			ea, eb, sel := a.entry(ex.d), b.entry(ex.d), ps.mask(w)
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				r := w.regs[l]
				if sel>>uint(l)&1 != 0 {
					r[d] = laneV32(&a, r, ea)
				} else {
					r[d] = laneV32(&b, r, eb)
				}
			}
		}

	case sass.OpFSET:
		a, b, want := f32(1, ftz), f32(2, ftz), setMasksOf(m.cmp[pc])
		tbits := ^uint32(0)
		if wide { // .BF: boolean-float result
			tbits = math.Float32bits(1)
		}
		fn = func(ex *executor, w *Warp, exec uint32) {
			ea, eb := a.entry(ex.d), b.entry(ex.d)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				o := outcome(laneF32(&a, r, ea), laneF32(&b, r, eb), 0)
				r[d] = tbits & -want.holds(1, o)
			}
		}

	case sass.OpFSETP:
		fn = lowerFSETP(f32(2, ftz), f32(3, ftz), lowerSetpCore(in, m, pc))

	case sass.OpISETP:
		fn = lowerISETP(i32(2), i32(3), lowerSetpCore(in, m, pc))

	case sass.OpDSETP:
		a, b, core := f64(2), f64(3), lowerSetpCore(in, m, pc)
		fn = func(ex *executor, w *Warp, exec uint32) {
			ea, eb := a.entry(ex.d), b.entry(ex.d)
			var o outcomes
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				r := w.regs[l]
				o = o.or(outcome(laneF64(&a, r, ea), laneF64(&b, r, eb), l))
			}
			core.write(w, exec, o)
		}

	case sass.OpFMNMX:
		a, b, ps := f32(1, ftz), f32(2, ftz), lowerSrcP(&ops[3])
		fn = func(ex *executor, w *Warp, exec uint32) {
			ea, eb, minP := a.entry(ex.d), b.entry(ex.d), ps.mask(w)
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				r := w.regs[l]
				v := fmnmx32(laneF32(&a, r, ea), laneF32(&b, r, eb), minP>>uint(l)&1 != 0)
				r[d] = out32(v, ftz)
			}
		}

	case sass.OpHADD2:
		fn = lowerF16(d, f16(1), f16(2), src[uint16]{reg: -1}, func(a, b, _ float32) float32 { return add32(a, b) })

	case sass.OpHMUL2:
		fn = lowerF16(d, f16(1), f16(2), src[uint16]{reg: -1}, func(a, b, _ float32) float32 { return mul32(a, b) })

	case sass.OpHFMA2:
		fn = lowerF16(d, f16(1), f16(2), f16(3), fma32)

	case sass.OpFCHK:
		p := int32(ops[0].Pred)
		if wide {
			a, b := f64(1), f64(2)
			fn = func(ex *executor, w *Warp, exec uint32) {
				ea, eb := a.entry(ex.d), b.entry(ex.d)
				var c uint32
				for msk := exec; msk != 0; msk &= msk - 1 {
					l := bits.TrailingZeros32(msk)
					r := w.regs[l]
					c |= b2u(fchkSpecial64(laneF64(&a, r, ea), laneF64(&b, r, eb))) << uint(l)
				}
				w.writePred(p, exec, c)
			}
			break
		}
		a, b := f32(1, false), f32(2, false)
		fn = func(ex *executor, w *Warp, exec uint32) {
			ea, eb := a.entry(ex.d), b.entry(ex.d)
			var c uint32
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				r := w.regs[l]
				c |= b2u(fchkSpecial(laneF32(&a, r, ea), laneF32(&b, r, eb))) << uint(l)
			}
			w.writePred(p, exec, c)
		}

	case sass.OpF2F:
		fn = lowerF2F(d, &ops[1], sub, ftz)

	case sass.OpI2F:
		a := i32(1)
		if wide {
			fn = func(ex *executor, w *Warp, exec uint32) {
				ea := a.entry(ex.d)
				eachLane(exec, func(l int) {
					r := w.regs[l]
					r[d], r[d+1] = fpval.Split64(math.Float64bits(float64(int32(laneI32(&a, r, ea)))))
				})
			}
			break
		}
		fn = func(ex *executor, w *Warp, exec uint32) {
			ea := a.entry(ex.d)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[d] = math.Float32bits(float32(int32(laneI32(&a, r, ea))))
			}
		}

	case sass.OpF2I:
		if wide {
			a := f64(1)
			fn = func(ex *executor, w *Warp, exec uint32) {
				ea := a.entry(ex.d)
				eachLane(exec, func(l int) {
					w.regs[l][d] = uint32(truncToI32(laneF64(&a, w.regs[l], ea)))
				})
			}
			break
		}
		a := f32(1, false)
		fn = func(ex *executor, w *Warp, exec uint32) {
			ea := a.entry(ex.d)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[d] = uint32(truncToI32(float64(laneF32(&a, r, ea))))
			}
		}

	case sass.OpMOV, sass.OpMOV32I:
		a := f32(1, false)
		if plainReg(&a) {
			ra := a.reg
			fn = func(ex *executor, w *Warp, exec uint32) {
				for msk := exec; msk != 0; msk &= msk - 1 {
					r := w.regs[bits.TrailingZeros32(msk)]
					r[d] = r[ra]
				}
			}
			break
		}
		fn = func(ex *executor, w *Warp, exec uint32) {
			ea := a.entry(ex.d)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[d] = laneV32(&a, r, ea)
			}
		}

	case sass.OpIADD:
		fn = lowerIADD(int32(d), i32(1), i32(2))

	case sass.OpIADD3:
		a, b, c := i32(1), i32(2), i32(3)
		fn = func(ex *executor, w *Warp, exec uint32) {
			ea, eb, ec := a.entry(ex.d), b.entry(ex.d), c.entry(ex.d)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[d] = laneI32(&a, r, ea) + laneI32(&b, r, eb) + laneI32(&c, r, ec)
			}
		}

	case sass.OpIMAD:
		fn = lowerIMAD(int32(d), i32(1), i32(2), i32(3))

	case sass.OpSHL:
		a, b := i32(1), i32(2)
		fn = func(ex *executor, w *Warp, exec uint32) {
			ea, eb := a.entry(ex.d), b.entry(ex.d)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[d] = laneI32(&a, r, ea) << (laneI32(&b, r, eb) & 31)
			}
		}

	case sass.OpSHR:
		a, b := i32(1), i32(2)
		fn = func(ex *executor, w *Warp, exec uint32) {
			ea, eb := a.entry(ex.d), b.entry(ex.d)
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[d] = laneI32(&a, r, ea) >> (laneI32(&b, r, eb) & 31)
			}
		}

	case sass.OpLOP:
		a, b := i32(1), i32(2)
		switch sub {
		case subLopOr:
			fn = func(ex *executor, w *Warp, exec uint32) {
				ea, eb := a.entry(ex.d), b.entry(ex.d)
				for msk := exec; msk != 0; msk &= msk - 1 {
					r := w.regs[bits.TrailingZeros32(msk)]
					r[d] = laneI32(&a, r, ea) | laneI32(&b, r, eb)
				}
			}
		case subLopXor:
			fn = func(ex *executor, w *Warp, exec uint32) {
				ea, eb := a.entry(ex.d), b.entry(ex.d)
				for msk := exec; msk != 0; msk &= msk - 1 {
					r := w.regs[bits.TrailingZeros32(msk)]
					r[d] = laneI32(&a, r, ea) ^ laneI32(&b, r, eb)
				}
			}
		default:
			fn = func(ex *executor, w *Warp, exec uint32) {
				ea, eb := a.entry(ex.d), b.entry(ex.d)
				for msk := exec; msk != 0; msk &= msk - 1 {
					r := w.regs[bits.TrailingZeros32(msk)]
					r[d] = laneI32(&a, r, ea) & laneI32(&b, r, eb)
				}
			}
		}

	case sass.OpLDG:
		addr := lowerAddr(&ops[1])
		if wide {
			fn = func(ex *executor, w *Warp, exec uint32) {
				eachLane(exec, func(l int) {
					lo, hi := fpval.Split64(ex.d.Load64(addr.lane(w, l)))
					w.SetReg(l, d, lo)
					w.SetReg(l, d+1, hi)
				})
			}
			break
		}
		keep := d != sass.RZ
		fn = func(ex *executor, w *Warp, exec uint32) {
			if exec == fullExec {
				for l := 0; l < WarpSize; l++ {
					v := ex.d.Load32(addr.lane(w, l))
					if keep {
						w.regs[l][d] = v
					}
				}
				return
			}
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				v := ex.d.Load32(addr.lane(w, l))
				if keep {
					w.regs[l][d] = v
				}
			}
		}

	case sass.OpSTG:
		addr := lowerAddr(&ops[0])
		src := ops[1].Reg
		if wide {
			fn = func(ex *executor, w *Warp, exec uint32) {
				eachLane(exec, func(l int) {
					v := fpval.Pair64(w.Reg(l, src), w.Reg(l, src+1))
					ex.d.Store64(addr.lane(w, l), v)
				})
			}
			break
		}
		fn = func(ex *executor, w *Warp, exec uint32) {
			if exec == fullExec {
				for l := 0; l < WarpSize; l++ {
					ex.d.Store32(addr.lane(w, l), w.Reg(l, src))
				}
				return
			}
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				ex.d.Store32(addr.lane(w, l), w.Reg(l, src))
			}
		}

	case sass.OpRED:
		addr := lowerAddr(&ops[0])
		src := ops[1].Reg
		fn = func(ex *executor, w *Warp, exec uint32) {
			// Lanes run sequentially in ascending order, like the
			// interpreter, so the read-modify-write stays deterministic.
			eachLane(exec, func(l int) {
				a := addr.lane(w, l)
				ex.d.Store32(a, redEval(sub, ex.d.Load32(a), w.Reg(l, src)))
			})
		}

	case sass.OpLDS:
		addr := lowerAddr(&ops[1])
		fn = func(ex *executor, w *Warp, exec uint32) {
			eachLane(exec, func(l int) {
				off := addr.lane(w, l)
				if int(off)+4 <= len(ex.shared) {
					w.SetReg(l, d, leU32(ex.shared[off:]))
				}
			})
		}

	case sass.OpSTS:
		addr := lowerAddr(&ops[0])
		src := ops[1].Reg
		fn = func(ex *executor, w *Warp, exec uint32) {
			eachLane(exec, func(l int) {
				off := addr.lane(w, l)
				if int(off)+4 <= len(ex.shared) {
					putLeU32(ex.shared[off:], w.Reg(l, src))
				}
			})
		}

	case sass.OpLDC:
		bank, off := int(ops[1].Bank), int(ops[1].Off)
		fn = func(ex *executor, w *Warp, exec uint32) {
			v := ex.d.CBankRead(bank, off)
			for msk := exec; msk != 0; msk &= msk - 1 {
				w.regs[bits.TrailingZeros32(msk)][d] = v
			}
		}

	case sass.OpS2R:
		sr := ops[1].SR
		fn = func(ex *executor, w *Warp, exec uint32) {
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				w.regs[l][d] = ex.special(w, l, sr)
			}
		}

	case sass.OpSHFL:
		fn = lowerSHFL(in, sub)

	case sass.OpHMMA:
		fn = func(ex *executor, w *Warp, exec uint32) {
			ex.hmma(w, in, exec)
		}

	default:
		op := in.Op
		return func(ex *executor, w *Warp, exec uint32) {
			panic(fmt.Sprintf("device: unimplemented opcode %v", op))
		}
	}

	if !warpInvariant(in) {
		return fn
	}
	// Every executing lane would write the same value: compute it for the
	// lowest lane and copy its destination to the others.
	lane, pair := fn, in.PairMask()&1 != 0
	return func(ex *executor, w *Warp, exec uint32) {
		if exec == 0 {
			return
		}
		l := bits.TrailingZeros32(exec)
		lane(ex, w, 1<<uint(l))
		lo := w.regs[l][d]
		if pair {
			hi := w.regs[l][d+1]
			for msk := exec; msk != 0; msk &= msk - 1 {
				r := w.regs[bits.TrailingZeros32(msk)]
				r[d], r[d+1] = lo, hi
			}
			return
		}
		if exec == fullExec {
			for l := 0; l < WarpSize; l++ {
				w.regs[l][d] = lo
			}
			return
		}
		for msk := exec; msk != 0; msk &= msk - 1 {
			w.regs[bits.TrailingZeros32(msk)][d] = lo
		}
	}
}

// laneLocal reports an opcode whose lanes each compute from their own
// sources into their own destinations: everything but the memory ops
// (LDC's constant bank aside), SHFL and HMMA.
func laneLocal(op sass.Op) bool {
	switch op {
	case sass.OpLDG, sass.OpSTG, sass.OpLDS, sass.OpSTS, sass.OpRED, sass.OpSHFL, sass.OpHMMA:
		return false
	}
	return true
}

// discardsAll reports a site that lowers to a no-op, which the fusion pass
// leaves out of region bodies: control flow, or a lane-local site whose
// every destination is RZ or PT.
func discardsAll(in *sass.Instr) bool {
	ops := in.Operands
	switch in.Op.Dest() {
	case sass.DestControl:
		return true
	case sass.DestRegister:
		return laneLocal(in.Op) && ops[0].Reg == sass.RZ
	case sass.DestPredicate:
		return ops[0].Pred == sass.PT
	case sass.DestPredicates:
		return ops[0].Pred == sass.PT && (ops[1].Type != sass.OperandPred || ops[1].Pred == sass.PT)
	}
	return false
}

// warpInvariant reports a register-writing lane-local site whose sources
// every lane reads alike: no register but RZ, no predicate but PT, and for
// S2R no per-lane special register.
func warpInvariant(in *sass.Instr) bool {
	if in.Op.Dest() != sass.DestRegister || !laneLocal(in.Op) {
		return false
	}
	if in.Op == sass.OpS2R {
		// S2R reads its operand's special register whatever the operand's
		// kind, as the interpreter does.
		sr := in.Operands[1].SR
		return sr != sass.SRTidX && sr != sass.SRLaneID
	}
	srcs := in.SrcOperands()
	for i := range srcs {
		if s := &srcs[i]; s.IsPlainReg() || s.Type == sass.OperandPred && s.Pred != sass.PT {
			return false
		}
	}
	return true
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

func lowerFFMA(d int32, sa, sb, sc src[uint32], ftz bool) thunk {
	if !ftz && plainReg(&sa) {
		a := sa.reg
		switch {
		case plainReg(&sb) && plainReg(&sc):
			b, c := sb.reg, sc.reg
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
		case plainReg(&sb) && sc.reg < 0:
			b := sb.reg
			return func(ex *executor, w *Warp, exec uint32) {
				fc := math.Float32frombits(sc.entry(ex.d))
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
		case sb.reg < 0 && plainReg(&sc):
			c := sc.reg
			return func(ex *executor, w *Warp, exec uint32) {
				fb := math.Float32frombits(sb.entry(ex.d))
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
		ea, eb, ec := sa.entry(ex.d), sb.entry(ex.d), sc.entry(ex.d)
		for msk := exec; msk != 0; msk &= msk - 1 {
			r := w.regs[bits.TrailingZeros32(msk)]
			r[d] = out32(fma32(laneF32(&sa, r, ea), laneF32(&sb, r, eb), laneF32(&sc, r, ec)), ftz)
		}
	}
}

func lowerFADD(d int32, sa, sb src[uint32], ftz bool) thunk {
	if !ftz && plainReg(&sa) {
		a := sa.reg
		if plainReg(&sb) {
			b := sb.reg
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
		if sb.reg < 0 {
			return func(ex *executor, w *Warp, exec uint32) {
				fb := math.Float32frombits(sb.entry(ex.d))
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
		ea, eb := sa.entry(ex.d), sb.entry(ex.d)
		for msk := exec; msk != 0; msk &= msk - 1 {
			r := w.regs[bits.TrailingZeros32(msk)]
			r[d] = out32(add32(laneF32(&sa, r, ea), laneF32(&sb, r, eb)), ftz)
		}
	}
}

func lowerFMUL(d int32, sa, sb src[uint32], ftz bool) thunk {
	if !ftz && plainReg(&sa) {
		a := sa.reg
		if plainReg(&sb) {
			b := sb.reg
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
		if sb.reg < 0 {
			return func(ex *executor, w *Warp, exec uint32) {
				fb := math.Float32frombits(sb.entry(ex.d))
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
		ea, eb := sa.entry(ex.d), sb.entry(ex.d)
		for msk := exec; msk != 0; msk &= msk - 1 {
			r := w.regs[bits.TrailingZeros32(msk)]
			r[d] = out32(mul32(laneF32(&sa, r, ea), laneF32(&sb, r, eb)), ftz)
		}
	}
}

func lowerIADD(d int32, sa, sb src[uint32]) thunk {
	if plainRegI(&sa) {
		a := sa.reg
		if plainRegI(&sb) {
			b := sb.reg
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
		if sb.reg < 0 {
			return func(ex *executor, w *Warp, exec uint32) {
				eb := sb.entry(ex.d)
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
		ea, eb := sa.entry(ex.d), sb.entry(ex.d)
		for msk := exec; msk != 0; msk &= msk - 1 {
			r := w.regs[bits.TrailingZeros32(msk)]
			r[d] = laneI32(&sa, r, ea) + laneI32(&sb, r, eb)
		}
	}
}

func lowerIMAD(d int32, sa, sb, sc src[uint32]) thunk {
	if plainRegI(&sa) && plainRegI(&sb) {
		a, b := sa.reg, sb.reg
		if plainRegI(&sc) {
			c := sc.reg
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
		if sc.reg < 0 {
			return func(ex *executor, w *Warp, exec uint32) {
				ec := sc.entry(ex.d)
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
	if plainRegI(&sa) && sb.reg < 0 {
		a := sa.reg
		if plainRegI(&sc) {
			c := sc.reg
			return func(ex *executor, w *Warp, exec uint32) {
				eb := sb.entry(ex.d)
				for msk := exec; msk != 0; msk &= msk - 1 {
					r := w.regs[bits.TrailingZeros32(msk)]
					r[d] = r[a]*eb + r[c]
				}
			}
		}
		if sc.reg < 0 {
			// Address arithmetic: IMAD R, R, imm|c[..], imm|c[..]|RZ.
			return func(ex *executor, w *Warp, exec uint32) {
				eb, ec := sb.entry(ex.d), sc.entry(ex.d)
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
		ea, eb, ec := sa.entry(ex.d), sb.entry(ex.d), sc.entry(ex.d)
		for msk := exec; msk != 0; msk &= msk - 1 {
			r := w.regs[bits.TrailingZeros32(msk)]
			r[d] = laneI32(&sa, r, ea)*laneI32(&sb, r, eb) + laneI32(&sc, r, ec)
		}
	}
}

func lowerISETP(sa, sb src[uint32], core setpCore) thunk {
	if plainRegI(&sa) {
		a := sa.reg
		if plainRegI(&sb) {
			b := sb.reg
			return func(ex *executor, w *Warp, exec uint32) {
				var o outcomes
				if exec == fullExec {
					st := w.stride
					n := (WarpSize-1)*st + 1
					pa, pb := laneCol(w, a, n), laneCol(w, b, n)
					for base := uint(0); base < uint(len(pa)); base += uint(st) {
						o = o.push(outcome(int32(pa[base]), int32(pb[base]), WarpSize-1))
					}
					core.write(w, exec, o)
					return
				}
				for msk := exec; msk != 0; msk &= msk - 1 {
					l := bits.TrailingZeros32(msk)
					r := w.regs[l]
					o = o.or(outcome(int32(r[a]), int32(r[b]), l))
				}
				core.write(w, exec, o)
			}
		}
		if sb.reg < 0 {
			return func(ex *executor, w *Warp, exec uint32) {
				eb := int32(sb.entry(ex.d))
				var o outcomes
				if exec == fullExec {
					st := w.stride
					pa := laneCol(w, a, (WarpSize-1)*st+1)
					for base := uint(0); base < uint(len(pa)); base += uint(st) {
						o = o.push(outcome(int32(pa[base]), eb, WarpSize-1))
					}
					core.write(w, exec, o)
					return
				}
				for msk := exec; msk != 0; msk &= msk - 1 {
					l := bits.TrailingZeros32(msk)
					o = o.or(outcome(int32(w.regs[l][a]), eb, l))
				}
				core.write(w, exec, o)
			}
		}
	}
	return func(ex *executor, w *Warp, exec uint32) {
		ea, eb := sa.entry(ex.d), sb.entry(ex.d)
		var o outcomes
		for msk := exec; msk != 0; msk &= msk - 1 {
			l := bits.TrailingZeros32(msk)
			r := w.regs[l]
			o = o.or(outcome(int32(laneI32(&sa, r, ea)), int32(laneI32(&sb, r, eb)), l))
		}
		core.write(w, exec, o)
	}
}

func lowerFSETP(sa, sb src[uint32], core setpCore) thunk {
	if plainReg(&sa) {
		a := sa.reg
		if plainReg(&sb) {
			b := sb.reg
			return func(ex *executor, w *Warp, exec uint32) {
				var o outcomes
				if exec == fullExec {
					st := w.stride
					n := (WarpSize-1)*st + 1
					pa, pb := laneCol(w, a, n), laneCol(w, b, n)
					for base := uint(0); base < uint(len(pa)); base += uint(st) {
						o = o.push(outcome(math.Float32frombits(pa[base]), math.Float32frombits(pb[base]), WarpSize-1))
					}
					core.write(w, exec, o)
					return
				}
				for msk := exec; msk != 0; msk &= msk - 1 {
					l := bits.TrailingZeros32(msk)
					r := w.regs[l]
					o = o.or(outcome(math.Float32frombits(r[a]), math.Float32frombits(r[b]), l))
				}
				core.write(w, exec, o)
			}
		}
		if sb.reg < 0 {
			return func(ex *executor, w *Warp, exec uint32) {
				fb := math.Float32frombits(sb.entry(ex.d))
				var o outcomes
				if exec == fullExec {
					st := w.stride
					pa := laneCol(w, a, (WarpSize-1)*st+1)
					for base := uint(0); base < uint(len(pa)); base += uint(st) {
						o = o.push(outcome(math.Float32frombits(pa[base]), fb, WarpSize-1))
					}
					core.write(w, exec, o)
					return
				}
				for msk := exec; msk != 0; msk &= msk - 1 {
					l := bits.TrailingZeros32(msk)
					o = o.or(outcome(math.Float32frombits(w.regs[l][a]), fb, l))
				}
				core.write(w, exec, o)
			}
		}
	}
	return func(ex *executor, w *Warp, exec uint32) {
		ea, eb := sa.entry(ex.d), sb.entry(ex.d)
		var o outcomes
		for msk := exec; msk != 0; msk &= msk - 1 {
			l := bits.TrailingZeros32(msk)
			r := w.regs[l]
			o = o.or(outcome(laneF32(&sa, r, ea), laneF32(&sb, r, eb), l))
		}
		core.write(w, exec, o)
	}
}

// lowerF64 builds an FP64 arithmetic thunk: each lane's pair d gets f of
// the three sources (c unused by DADD and DMUL).
func lowerF64(d int, sa, sb, sc src[uint64], f func(a, b, c float64) float64) thunk {
	return func(ex *executor, w *Warp, exec uint32) {
		ea, eb, ec := sa.entry(ex.d), sb.entry(ex.d), sc.entry(ex.d)
		if exec == fullExec {
			for l := 0; l < WarpSize; l++ {
				r := w.regs[l]
				v := f(laneF64(&sa, r, ea), laneF64(&sb, r, eb), laneF64(&sc, r, ec))
				r[d], r[d+1] = fpval.Split64(math.Float64bits(v))
			}
			return
		}
		for msk := exec; msk != 0; msk &= msk - 1 {
			r := w.regs[bits.TrailingZeros32(msk)]
			v := f(laneF64(&sa, r, ea), laneF64(&sb, r, eb), laneF64(&sc, r, ec))
			r[d], r[d+1] = fpval.Split64(math.Float64bits(v))
		}
	}
}

// lowerF16 builds an FP16 arithmetic thunk: each lane's register d gets f
// of the three sources, computed in float32 and rounded to FP16 (c unused
// by HADD2 and HMUL2).
func lowerF16(d int, sa, sb, sc src[uint16], f func(a, b, c float32) float32) thunk {
	return func(ex *executor, w *Warp, exec uint32) {
		ea, eb, ec := sa.entry(ex.d), sb.entry(ex.d), sc.entry(ex.d)
		eachLane(exec, func(l int) {
			r := w.regs[l]
			v := f(laneF16(&sa, r, ea), laneF16(&sb, r, eb), laneF16(&sc, r, ec))
			r[d] = uint32(fpval.F16FromFloat32(v))
		})
	}
}

func lowerF2F(d int, op *sass.Operand, sub uint8, ftz bool) thunk {
	dstFmt, srcFmt := f2fFormats(sub)
	var s64 src[uint64]
	var s32 src[uint32]
	if srcFmt == fpval.FP64 {
		s64 = lowerSrc[uint64](op, fpval.FP64, false)
	} else {
		// F16 sources mirror the interpreter: sign modifiers act on the
		// 32-bit pattern before truncation to 16 bits.
		s32 = lowerSrc[uint32](op, fpval.FP32, false)
	}
	read := func(w *Warp, l int, u64 uint64, u32 uint32) uint64 {
		if srcFmt == fpval.FP64 {
			return laneV64(&s64, w.regs[l], u64)
		}
		return uint64(laneV32(&s32, w.regs[l], u32))
	}
	write := func(w *Warp, l int, v uint64) {
		r := w.regs[l]
		if dstFmt == fpval.FP64 {
			r[d], r[d+1] = fpval.Split64(v)
			return
		}
		r[d] = uint32(v)
	}
	return func(ex *executor, w *Warp, exec uint32) {
		u64, u32 := s64.entry(ex.d), s32.entry(ex.d)
		eachLane(exec, func(l int) {
			write(w, l, f2fEval(dstFmt, srcFmt, ftz, read(w, l, u64, u32)))
		})
	}
}

func lowerSHFL(in *sass.Instr, mode uint8) thunk {
	dst := in.Operands[0].Reg
	srcReg := in.Operands[1].Reg
	off := lowerSrc[uint32](&in.Operands[2], fmtInt, false)
	return func(ex *executor, w *Warp, exec uint32) {
		var snapshot [WarpSize]uint32
		if srcReg != sass.RZ {
			for l := 0; l < WarpSize; l++ {
				snapshot[l] = w.regs[l][srcReg]
			}
		}
		u := off.entry(ex.d)
		eachLane(exec, func(l int) {
			src := shflLane(mode, l, int(laneI32(&off, w.regs[l], u)))
			v := snapshot[l]
			if src >= 0 && src < WarpSize {
				v = snapshot[src]
			}
			w.SetReg(l, dst, v)
		})
	}
}
