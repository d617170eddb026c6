package device

import (
	"fmt"
	"math"
	"math/bits"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// lowerInstr builds the thunk for one instruction. A chainable lane-local
// site compiles to its mop closure (fuse_ops.go); everything else gets a
// hand-written thunk here. Stepping and fused region bodies run the same
// thunk.
// Branch, barrier and exit control flow stays in executor.step; their
// thunks are no-ops. Pure instructions whose every destination is RZ or PT
// lower to no-ops as well: the interpreter computes and discards the
// result, and the computation has no observable effect (detectors read
// sources via injected calls, not via the write).
func lowerInstr(k *sass.Kernel, pc int, m *kernelMeta, lk *loweredKernel) thunk {
	in := &k.Instrs[pc]
	ops := in.Operands
	wide := m.sub[pc] == subWide

	if chainable(in, m, pc) {
		op := buildMop(in, m, pc)
		if op.writesNothing() {
			return lk.nop(pc)
		}
		return compileMop(&op)
	}

	switch in.Op {
	case sass.OpDADD, sass.OpDMUL, sass.OpDFMA:
		return lowerArith64(in, pc, lk)

	case sass.OpDSETP:
		s1, s2 := lowerSrc[uint64](&ops[2], fpval.FP64, false), lowerSrc[uint64](&ops[3], fpval.FP64, false)
		core := lowerSetpCore(in, m, pc)
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2 := s1.entry(ex.d), s2.entry(ex.d)
			var o outcomes
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				r := w.regs[l]
				o = o.or(outcome(laneF64(&s1, r, u1), laneF64(&s2, r, u2), l))
			}
			core.write(w, exec, o)
		}

	case sass.OpHADD2, sass.OpHMUL2, sass.OpHFMA2:
		return lowerArith16(in, pc, lk)

	case sass.OpFCHK: // .F64; FP32 is chainable
		pd := predDst(ops[0].Pred)
		if pd < 0 {
			return lk.nop(pc)
		}
		s1, s2 := lowerSrc[uint64](&ops[1], fpval.FP64, false), lowerSrc[uint64](&ops[2], fpval.FP64, false)
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2 := s1.entry(ex.d), s2.entry(ex.d)
			var c uint32
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				r := w.regs[l]
				c |= b2u(fchkSpecial64(laneF64(&s1, r, u1), laneF64(&s2, r, u2))) << uint(l)
			}
			w.writePred(pd, exec, c)
		}

	case sass.OpF2F:
		return lowerF2F(in, pc, m, lk)

	case sass.OpI2F: // .F64; FP32 is chainable
		dst := ops[0].Reg
		if dst == sass.RZ {
			return lk.nop(pc)
		}
		s := lowerSrc[uint32](&ops[1], fmtInt, false)
		if s.reg < 0 {
			return func(ex *executor, w *Warp, exec uint32) {
				broadcast64(w, dst, math.Float64bits(float64(int32(s.entry(ex.d)))), exec)
			}
		}
		return func(ex *executor, w *Warp, exec uint32) {
			u := s.entry(ex.d)
			eachLane(exec, func(l int) {
				lo, hi := fpval.Split64(math.Float64bits(float64(int32(laneI32(&s, w.regs[l], u)))))
				r := w.regs[l]
				r[dst], r[dst+1] = lo, hi
			})
		}

	case sass.OpF2I: // .F64; FP32 is chainable
		dst := ops[0].Reg
		if dst == sass.RZ {
			return lk.nop(pc)
		}
		s := lowerSrc[uint64](&ops[1], fpval.FP64, false)
		if s.reg < 0 {
			return func(ex *executor, w *Warp, exec uint32) {
				broadcast32(w, dst, uint32(truncToI32(math.Float64frombits(s.entry(ex.d)))), exec)
			}
		}
		return func(ex *executor, w *Warp, exec uint32) {
			u := s.entry(ex.d)
			eachLane(exec, func(l int) {
				w.regs[l][dst] = uint32(truncToI32(laneF64(&s, w.regs[l], u)))
			})
		}

	case sass.OpLDG:
		dst := ops[0].Reg
		addr := lowerAddr(&ops[1])
		if wide {
			return func(ex *executor, w *Warp, exec uint32) {
				eachLane(exec, func(l int) {
					lo, hi := fpval.Split64(ex.d.Load64(addr.lane(w, l)))
					w.SetReg(l, dst, lo)
					w.SetReg(l, dst+1, hi)
				})
			}
		}
		keep := dst != sass.RZ
		return func(ex *executor, w *Warp, exec uint32) {
			if exec == fullExec {
				for l := 0; l < WarpSize; l++ {
					v := ex.d.Load32(addr.lane(w, l))
					if keep {
						w.regs[l][dst] = v
					}
				}
				return
			}
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				v := ex.d.Load32(addr.lane(w, l))
				if keep {
					w.regs[l][dst] = v
				}
			}
		}

	case sass.OpSTG:
		addr := lowerAddr(&ops[0])
		src := ops[1].Reg
		if wide {
			return func(ex *executor, w *Warp, exec uint32) {
				eachLane(exec, func(l int) {
					v := fpval.Pair64(w.Reg(l, src), w.Reg(l, src+1))
					ex.d.Store64(addr.lane(w, l), v)
				})
			}
		}
		return func(ex *executor, w *Warp, exec uint32) {
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
		red := m.sub[pc]
		return func(ex *executor, w *Warp, exec uint32) {
			// Lanes run sequentially in ascending order, like the
			// interpreter, so the read-modify-write stays deterministic.
			eachLane(exec, func(l int) {
				a := addr.lane(w, l)
				ex.d.Store32(a, redEval(red, ex.d.Load32(a), w.Reg(l, src)))
			})
		}

	case sass.OpLDS:
		dst := ops[0].Reg
		addr := lowerAddr(&ops[1])
		return func(ex *executor, w *Warp, exec uint32) {
			eachLane(exec, func(l int) {
				off := addr.lane(w, l)
				if int(off)+4 <= len(ex.shared) {
					w.SetReg(l, dst, leU32(ex.shared[off:]))
				}
			})
		}

	case sass.OpSTS:
		addr := lowerAddr(&ops[0])
		src := ops[1].Reg
		return func(ex *executor, w *Warp, exec uint32) {
			eachLane(exec, func(l int) {
				off := addr.lane(w, l)
				if int(off)+4 <= len(ex.shared) {
					putLeU32(ex.shared[off:], w.Reg(l, src))
				}
			})
		}

	case sass.OpLDC:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return lk.nop(pc)
		}
		bank, off := ops[1].Bank, ops[1].Off
		// Constant-bank reads are warp-invariant by construction.
		return func(ex *executor, w *Warp, exec uint32) {
			broadcast32(w, dst, ex.d.CBankRead(bank, off), exec)
		}

	case sass.OpS2R:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return lk.nop(pc)
		}
		// SR_TID.X and SR_LANEID are chainable; the rest are warp-invariant.
		switch ops[1].SR {
		case sass.SRCtaidX:
			return func(ex *executor, w *Warp, exec uint32) {
				broadcast32(w, dst, uint32(w.Block), exec)
			}
		case sass.SRNtidX:
			return func(ex *executor, w *Warp, exec uint32) {
				broadcast32(w, dst, uint32(ex.l.BlockDim), exec)
			}
		case sass.SRNctaidX:
			return func(ex *executor, w *Warp, exec uint32) {
				broadcast32(w, dst, uint32(ex.l.GridDim), exec)
			}
		default:
			return func(ex *executor, w *Warp, exec uint32) {
				broadcast32(w, dst, 0, exec)
			}
		}

	case sass.OpSHFL:
		return lowerSHFL(in, m.sub[pc])

	case sass.OpHMMA:
		return func(ex *executor, w *Warp, exec uint32) {
			ex.hmma(w, in, exec)
		}

	case sass.OpBRA, sass.OpEXIT, sass.OpNOP, sass.OpBAR:
		// Control flow is handled in executor.step, identically for every
		// tier.
		return nopThunk

	default:
		op := in.Op
		return func(ex *executor, w *Warp, exec uint32) {
			panic(fmt.Sprintf("device: unimplemented opcode %v", op))
		}
	}
}

// FP64 arithmetic kinds.
const (
	d64Add = iota
	d64Mul
	d64Fma
)

func lowerArith64(in *sass.Instr, pc int, lk *loweredKernel) thunk {
	ops := in.Operands
	dst := ops[0].Reg
	if dst == sass.RZ {
		return lk.nop(pc)
	}
	kind := d64Add
	switch in.Op {
	case sass.OpDMUL:
		kind = d64Mul
	case sass.OpDFMA:
		kind = d64Fma
	}
	s1, s2 := lowerSrc[uint64](&ops[1], fpval.FP64, false), lowerSrc[uint64](&ops[2], fpval.FP64, false)
	s3 := src[uint64]{reg: -1}
	if kind == d64Fma {
		s3 = lowerSrc[uint64](&ops[3], fpval.FP64, false)
	}
	eval := func(a, b, c float64) float64 {
		switch kind {
		case d64Mul:
			return mul64(a, b)
		case d64Fma:
			return math.FMA(a, b, c)
		default:
			return add64(a, b)
		}
	}
	if s1.reg < 0 && s2.reg < 0 && s3.reg < 0 {
		return func(ex *executor, w *Warp, exec uint32) {
			a := math.Float64frombits(s1.entry(ex.d))
			b := math.Float64frombits(s2.entry(ex.d))
			c := math.Float64frombits(s3.entry(ex.d))
			broadcast64(w, dst, math.Float64bits(eval(a, b, c)), exec)
		}
	}
	return func(ex *executor, w *Warp, exec uint32) {
		u1, u2, u3 := s1.entry(ex.d), s2.entry(ex.d), s3.entry(ex.d)
		if exec == fullExec {
			for l := 0; l < WarpSize; l++ {
				r := w.regs[l]
				v := eval(laneF64(&s1, r, u1), laneF64(&s2, r, u2), laneF64(&s3, r, u3))
				r[dst], r[dst+1] = fpval.Split64(math.Float64bits(v))
			}
			return
		}
		for msk := exec; msk != 0; msk &= msk - 1 {
			r := w.regs[bits.TrailingZeros32(msk)]
			v := eval(laneF64(&s1, r, u1), laneF64(&s2, r, u2), laneF64(&s3, r, u3))
			r[dst], r[dst+1] = fpval.Split64(math.Float64bits(v))
		}
	}
}

// FP16 arithmetic kinds.
const (
	h16Add = iota
	h16Mul
	h16Fma
)

func lowerArith16(in *sass.Instr, pc int, lk *loweredKernel) thunk {
	ops := in.Operands
	dst := ops[0].Reg
	if dst == sass.RZ {
		return lk.nop(pc)
	}
	kind := h16Add
	switch in.Op {
	case sass.OpHMUL2:
		kind = h16Mul
	case sass.OpHFMA2:
		kind = h16Fma
	}
	s1, s2 := lowerSrc[uint16](&ops[1], fpval.FP16, false), lowerSrc[uint16](&ops[2], fpval.FP16, false)
	s3 := src[uint16]{reg: -1}
	if kind == h16Fma {
		s3 = lowerSrc[uint16](&ops[3], fpval.FP16, false)
	}
	eval := func(a, b, c float32) float32 {
		switch kind {
		case h16Mul:
			return mul32(a, b)
		case h16Fma:
			return fma32(a, b, c)
		default:
			return add32(a, b)
		}
	}
	if s1.reg < 0 && s2.reg < 0 && s3.reg < 0 {
		return func(ex *executor, w *Warp, exec uint32) {
			a := fpval.F16ToFloat32(s1.entry(ex.d))
			b := fpval.F16ToFloat32(s2.entry(ex.d))
			c := fpval.F16ToFloat32(s3.entry(ex.d))
			broadcast32(w, dst, uint32(fpval.F16FromFloat32(eval(a, b, c))), exec)
		}
	}
	return func(ex *executor, w *Warp, exec uint32) {
		u1, u2, u3 := s1.entry(ex.d), s2.entry(ex.d), s3.entry(ex.d)
		eachLane(exec, func(l int) {
			r := w.regs[l]
			v := eval(laneF16(&s1, r, u1), laneF16(&s2, r, u2), laneF16(&s3, r, u3))
			r[dst] = uint32(fpval.F16FromFloat32(v))
		})
	}
}

func lowerF2F(in *sass.Instr, pc int, m *kernelMeta, lk *loweredKernel) thunk {
	ops := in.Operands
	dst := ops[0].Reg
	if dst == sass.RZ {
		return lk.nop(pc)
	}
	dstFmt, srcFmt := f2fFormats(m.sub[pc])
	ftz := m.ftz[pc]
	var s64 src[uint64]
	var s32 src[uint32]
	var uniform bool
	if srcFmt == fpval.FP64 {
		s64 = lowerSrc[uint64](&ops[1], fpval.FP64, false)
		uniform = s64.reg < 0
	} else {
		// F16 sources mirror the interpreter: sign modifiers act on the
		// 32-bit pattern before truncation to 16 bits.
		s32 = lowerSrc[uint32](&ops[1], fpval.FP32, false)
		uniform = s32.reg < 0
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
			r[dst], r[dst+1] = fpval.Split64(v)
			return
		}
		r[dst] = uint32(v)
	}
	return func(ex *executor, w *Warp, exec uint32) {
		u64, u32 := s64.entry(ex.d), s32.entry(ex.d)
		if uniform {
			v := f2fEval(dstFmt, srcFmt, ftz, read(w, 0, u64, u32))
			eachLane(exec, func(l int) { write(w, l, v) })
			return
		}
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
