package device

import (
	"math"
	"math/bits"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// This file is the instrumentation-side counterpart of lower.go: compiled
// operand readers for injected tool code. A tool operand is the executor's
// compiled form (src) held at 64-bit width, so one reader carries any
// format: the analyzer reads its worst-lane IEEE class, the shadow
// sanitizer its value promoted to float64. The per-dynamic-instruction path
// never re-switches on operand kind, never re-parses a GENERIC constant,
// and iterates executing lanes by mask bits instead of probing all 32. The
// detector's destination check (ExcMasks32/64/16) reads registers directly.

// ToolSrc is one instruction operand compiled for injected tool code.
type ToolSrc struct{ s src[uint64] }

// LowerClassSrc compiles the analyzer's reader for op in format f. It reads
// the operand's raw bits the way analyzer-injected code reads its variadic
// REG/CBANK arguments (Listing 1), without the instruction's sign
// modifiers: a register per lane (the pair for FP64, the low 16 bits for
// FP16/BF16), a constant-bank word per call, and compile-time operands
// (RZ, IMM_DOUBLE, GENERIC) decoded once here. Operand kinds that carry no
// floating-point value — integer immediates, memory references, special
// and predicate registers — read as a zero constant, so they classify as
// VAL0.
func LowerClassSrc(op *sass.Operand, f fpval.Format) ToolSrc {
	var o sass.Operand
	switch op.Type {
	case sass.OperandReg, sass.OperandCBank, sass.OperandImmDouble, sass.OperandGeneric:
		o = *op
		o.Neg, o.Abs = false, false
	}
	return ToolSrc{lowerSrc[uint64](&o, f, false)}
}

// LowerValSrc compiles the shadow sanitizer's reader for op in format f
// (FP32 or FP16): the executor's read, without FTZ source flushing —
// shadow execution deliberately keeps the subnormal value the flush would
// discard.
func LowerValSrc(op *sass.Operand, f fpval.Format) ToolSrc {
	return ToolSrc{lowerSrc[uint64](op, f, false)}
}

// Worst returns the most severe IEEE class the operand takes across the
// executing lanes (NaN > INF > SUB > VAL > VAL0). Constant and
// constant-bank operands classify their one warp-invariant value; register
// operands walk the exec mask bit by bit with direct register-file access
// (the pair for FP64, the low half for FP16/BF16) and stop early once a
// NaN lane is seen.
func (t *ToolSrc) Worst(c *InjCtx) fpval.Class {
	if t.s.reg < 0 {
		return fpval.Classify(t.s.fmt, t.s.entry(c.Dev))
	}
	reg := t.s.reg
	worst := fpval.Zero
	sev := uint8(0)
	for m := c.ExecMask; m != 0; m &= m - 1 {
		r := c.Warp.regs[bits.TrailingZeros32(m)]
		var cl fpval.Class
		switch t.s.fmt {
		case fpval.FP64:
			cl = fpval.Classify64(fpval.Pair64(r[reg], r[reg+1]))
		case fpval.FP16:
			cl = fpval.Classify16(uint16(r[reg]))
		case fpval.BF16:
			cl = fpval.ClassifyBF16(uint16(r[reg]))
		default:
			cl = fpval.Classify32(r[reg])
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

// Reg returns the register a per-lane read covers, and whether the operand
// is such a read at all — the only operand kind a shadow register file can
// back. Constant and constant-bank operands report false.
func (t *ToolSrc) Reg() (int, bool) { return int(t.s.reg), t.s.reg >= 0 }

// Bits returns the raw 32-bit register content of a lane, before sign
// modifiers — the identity a shadow cell is validated against. Only
// meaningful for register operands.
func (t *ToolSrc) Bits(c *InjCtx, lane int) uint32 { return c.Warp.regs[lane][t.s.reg] }

// Base returns the unmodified promoted value of a lane's register read —
// what a shadow cell stores, so sign modifiers can be applied per read the
// way the executor applies them per operand. Only meaningful for register
// operands.
func (t *ToolSrc) Base(c *InjCtx, lane int) float64 {
	return promote(t.s.fmt, uint64(c.Warp.regs[lane][t.s.reg]))
}

// Mod applies the operand's sign modifiers (|x| first, then negation) to a
// value — bit-equivalent to the executor's sign masks under exact float64
// promotion.
func (t *ToolSrc) Mod(v float64) float64 {
	if t.s.abs != 0 {
		v = math.Abs(v)
	}
	if t.s.neg != 0 {
		v = -v
	}
	return v
}

// Val reads the operand's modified value for a lane: register operands
// promote the lane's register content, the others their warp-invariant
// value.
func (t *ToolSrc) Val(c *InjCtx, lane int) float64 {
	if t.s.reg >= 0 {
		return t.Mod(t.Base(c, lane))
	}
	return promote(t.s.fmt, t.s.entry(c.Dev))
}

// promote converts raw bits in a shadowed format (FP32, or FP16 in the low
// half) to float64 exactly.
func promote(f fpval.Format, v uint64) float64 {
	if f == fpval.FP16 {
		return float64(fpval.F16ToFloat32(uint16(v)))
	}
	return float64(math.Float32frombits(uint32(v)))
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
