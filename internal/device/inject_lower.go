package device

import (
	"math"
	"math/bits"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// This file is the instrumentation-side counterpart of lower.go: pre-resolved
// operand accessors for injected tool code. Where lower.go compiles the
// executor's operand reads into direct-threaded thunks, these helpers compile
// a tool's per-site operand *classification* — the analyzer's worst-lane
// class reduction and the detector's destination check — so the per-dynamic-
// instruction path never re-switches on operand kind, never re-parses a
// GENERIC constant, and iterates executing lanes by mask bits instead of
// probing all 32.

// classKind is the compile-time shape of a ClassSrc.
type classKind uint8

const (
	// classConst is an operand whose class is fully known at lowering time:
	// IMM_DOUBLE and GENERIC constants, the zero register, and the operand
	// kinds the analyzer reads as no value at all (memory references,
	// integer immediates, special registers).
	classConst classKind = iota
	// classCBank is a constant-bank read: runtime-valued but warp-invariant,
	// so one classification serves every lane.
	classCBank
	// classReg32/64/16/BF16 are per-lane register reads in the respective
	// format; FP64 reads the pair (reg, reg+1).
	classReg32
	classReg64
	classReg16
	classRegBF16
)

// ClassSrc classifies one instruction operand for injected tool code, with
// the operand kind, register numbers, format and compile-time value resolved
// once at instrumentation time (Listing 2's IMM/GENERIC resolution moved out
// of the per-lane runtime path).
type ClassSrc struct {
	kind      classKind
	reg       int
	bank, off int
	fmt       fpval.Format
	konst     fpval.Class
}

// LowerClassSrc compiles an operand classifier for format f, reading the
// operand's raw bits the way analyzer-injected code reads its variadic
// REG/CBANK arguments (Listing 1), without the instruction's sign
// modifiers: a register per lane (the pair for FP64, the low 16 bits for
// FP16/BF16), a constant-bank word per call, and compile-time operands
// (RZ, IMM_DOUBLE, GENERIC) classified once here. Operand kinds that carry
// no floating-point value classify as VAL0.
func LowerClassSrc(op *sass.Operand, f fpval.Format) ClassSrc {
	switch op.Type {
	case sass.OperandReg:
		if op.Reg == sass.RZ {
			return ClassSrc{kind: classConst, konst: fpval.Classify(f, 0)}
		}
		switch f {
		case fpval.FP64:
			return ClassSrc{kind: classReg64, reg: op.Reg}
		case fpval.FP16:
			return ClassSrc{kind: classReg16, reg: op.Reg}
		case fpval.BF16:
			return ClassSrc{kind: classRegBF16, reg: op.Reg}
		default:
			return ClassSrc{kind: classReg32, reg: op.Reg}
		}
	case sass.OperandCBank:
		return ClassSrc{kind: classCBank, bank: op.Bank, off: op.Off, fmt: f}
	case sass.OperandImmDouble:
		var raw uint64
		switch f {
		case fpval.FP64:
			raw = math.Float64bits(op.Imm)
		case fpval.FP16:
			raw = uint64(fpval.F16FromFloat32(float32(op.Imm)))
		default:
			raw = uint64(math.Float32bits(float32(op.Imm)))
		}
		return ClassSrc{kind: classConst, konst: fpval.Classify(f, raw)}
	case sass.OperandGeneric:
		// The one place a GENERIC constant is parsed: per site, not per lane
		// per dynamic call.
		return ClassSrc{kind: classConst, konst: fpval.Classify(f, genericBits(op.Gen, f))}
	default:
		// These kinds carry no value; the worst-lane fold over "no value"
		// keeps its VAL0 seed.
		return ClassSrc{kind: classConst, konst: fpval.Zero}
	}
}

// Worst returns the most severe IEEE class the operand takes across the
// executing lanes (NaN > INF > SUB > VAL > VAL0). Compile-time operands
// return their baked class; constant-bank operands classify one warp-
// invariant read; register operands walk the exec mask bit by bit with
// direct register-file access and stop early once a NaN lane is seen.
func (s *ClassSrc) Worst(c *InjCtx) fpval.Class {
	switch s.kind {
	case classConst:
		return s.konst
	case classCBank:
		if s.fmt == fpval.FP64 {
			lo := c.Dev.CBankRead(s.bank, s.off)
			hi := c.Dev.CBankRead(s.bank, s.off+4)
			return fpval.Classify64(fpval.Pair64(lo, hi))
		}
		return fpval.Classify(s.fmt, uint64(c.Dev.CBankRead(s.bank, s.off)))
	}
	w := c.Warp
	worst := fpval.Zero
	sev := uint8(0)
	for m := c.ExecMask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		var cl fpval.Class
		switch s.kind {
		case classReg32:
			cl = fpval.Classify32(w.regs[l][s.reg])
		case classReg64:
			cl = fpval.Classify64(fpval.Pair64(w.regs[l][s.reg], w.regs[l][s.reg+1]))
		case classReg16:
			cl = fpval.Classify16(uint16(w.regs[l][s.reg]))
		default:
			cl = fpval.ClassifyBF16(uint16(w.regs[l][s.reg]))
		}
		if v := cl.Severity(); v > sev {
			worst, sev = cl, v
			if sev == fpval.MaxSeverity {
				break
			}
		}
	}
	return worst
}

// ExcMasks32 classifies a 32-bit register across the executing lanes in one
// direct register-file pass, returning the lane masks whose values are NaN,
// INF and subnormal. RZ (and by extension any all-zero register) yields
// empty masks. This is the detector's slimmed injected body: the common
// no-exception call is one classification per executing lane with no
// per-lane indirection, and callers only walk lanes when a mask is non-zero.
func (c *InjCtx) ExcMasks32(reg int) (nan, inf, sub uint32) {
	if reg == sass.RZ {
		return
	}
	w := c.Warp
	for m := c.ExecMask; m != 0; m &= m - 1 {
		bit := m & -m
		switch fpval.Classify32(w.regs[bits.TrailingZeros32(m)][reg]) {
		case fpval.NaN:
			nan |= bit
		case fpval.Inf:
			inf |= bit
		case fpval.Subnormal:
			sub |= bit
		}
	}
	return
}

// ExcMasks64 is ExcMasks32 for the FP64 register pair (reg, reg+1).
func (c *InjCtx) ExcMasks64(reg int) (nan, inf, sub uint32) {
	if reg == sass.RZ {
		return
	}
	w := c.Warp
	for m := c.ExecMask; m != 0; m &= m - 1 {
		bit := m & -m
		l := bits.TrailingZeros32(m)
		switch fpval.Classify64(fpval.Pair64(w.regs[l][reg], w.regs[l][reg+1])) {
		case fpval.NaN:
			nan |= bit
		case fpval.Inf:
			inf |= bit
		case fpval.Subnormal:
			sub |= bit
		}
	}
	return
}

// ExcMasks16 is ExcMasks32 for the FP16 value in a register's low half.
func (c *InjCtx) ExcMasks16(reg int) (nan, inf, sub uint32) {
	if reg == sass.RZ {
		return
	}
	w := c.Warp
	for m := c.ExecMask; m != 0; m &= m - 1 {
		bit := m & -m
		switch fpval.Classify16(uint16(w.regs[bits.TrailingZeros32(m)][reg])) {
		case fpval.NaN:
			nan |= bit
		case fpval.Inf:
			inf |= bit
		case fpval.Subnormal:
			sub |= bit
		}
	}
	return
}

// NewToolCtx returns a standalone injection context over a fresh full-mask
// warp on its own device — a harness for tool microbenchmarks and allocation
// tests that drive injected bodies directly, without a launch. numRegs sizes
// the per-lane register file; registers are reachable through the context's
// Warp.
func NewToolCtx(numRegs int) *InjCtx {
	return &InjCtx{
		Dev:      New(DefaultConfig()),
		Warp:     newWarp(0, 0, 0, numRegs, WarpSize),
		ExecMask: fullExec,
	}
}
