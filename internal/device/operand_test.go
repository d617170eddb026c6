package device

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// This file pins every compiled operand read to the interpreter's operand
// access (srcBits32, srcF32, srcInt, srcF64, srcF16): the executor's FP32,
// integer, FP64 and FP16 reads, the analyzer's worst-lane class and the
// shadow sanitizer's promoted value, over every operand kind, every sign
// modifier and every lane of a register file holding zeros, normals,
// subnormals, infinities and NaN payloads in each format's bits.

// The compiled readers under test. Each returns lane l's read.
func compiledF32(ctx *InjCtx, op *sass.Operand, ftz bool, l int) uint32 {
	s := lowerSrc[uint32](op, fpval.FP32, ftz)
	return laneV32(&s, ctx.Warp.regs[l], s.entry(ctx.Dev))
}

func compiledInt(ctx *InjCtx, op *sass.Operand, l int) uint32 {
	s := lowerSrc[uint32](op, fmtInt, false)
	return laneI32(&s, ctx.Warp.regs[l], s.entry(ctx.Dev))
}

func compiledF64(ctx *InjCtx, op *sass.Operand, l int) uint64 {
	s := lowerSrc[uint64](op, fpval.FP64, false)
	return laneV64(&s, ctx.Warp.regs[l], s.entry(ctx.Dev))
}

func compiledF16(ctx *InjCtx, op *sass.Operand, l int) float32 {
	s := lowerSrc[uint16](op, fpval.FP16, false)
	return laneF16(&s, ctx.Warp.regs[l], s.entry(ctx.Dev))
}

// The register file: R2 holds a 32-bit pattern (with FP16 patterns in its
// low half) and R3 the high word of the FP64 pair (R2, R3). The two lists
// have coprime lengths, so the 32 lanes pair most of their entries.
var (
	operandLo = []uint32{
		0, 0x8000_0000, math.Float32bits(1.5), 0xc0a0_0000, // zeros, normals
		0x0000_0001, 0x807f_ffff, // FP32 subnormals
		0x7f80_0000, 0xff80_0000, // FP32 infinities
		0x7fc0_0000, 0x7f80_0001, 0xffc0_1234, // FP32 NaNs, quiet and signaling
		0x1234_3c00, 0x0000_0001, 0xabcd_83ff, // FP16 1.0 and subnormals
		0x0000_7c00, 0x5555_fc00, // FP16 infinities
		0x0000_7e00, 0x0000_fc01, 0x7f7f_7d00, // FP16 NaNs
	}
	operandHi = []uint32{
		0, 0x8000_0000, 0x3ff8_0000, // zeros and 1.5
		0x000f_ffff, 0x8000_0001, // FP64 subnormals (with any low word)
		0x7ff0_0000, 0xfff0_0000, // FP64 infinities or NaNs, by low word
		0x7ff8_0000, 0x7ff0_0001, 0xc024_0000,
		0x4000_0000, 0x7fef_ffff, 0x0010_0000,
	}
)

// The constant bank: c[0x0][0x170] and its pair word 0x174 hold a negative
// FP32 subnormal under a negative FP64 subnormal; 0x178/0x17c an FP32 qNaN
// whose low half is a negative FP16 sNaN, under an FP64 INF high word.
var operandCBank = map[int]uint32{
	0x170: 0x807f_ffff, 0x174: 0x800f_ffff,
	0x178: 0x7fc0_fc01, 0x17c: 0x7ff0_0000,
}

// operandKinds is every operand kind a compiled reader resolves.
var operandKinds = []sass.Operand{
	sass.Reg(2),
	sass.Reg(sass.RZ),
	sass.CBank(0, 0x170),
	sass.CBank(0, 0x178),
	sass.CBank(1, 0x20), // unpopulated bank: reads 0
	sass.ImmF(1.5),
	sass.ImmF(-0.1),
	sass.ImmF(1e-40),                    // FP32 subnormal, FP16 zero
	sass.ImmF(3e-5),                     // FP16 subnormal
	sass.ImmF(5e-324),                   // FP64 subnormal
	sass.ImmF(1e39),                     // FP32 INF
	sass.ImmF(70000),                    // FP16 INF
	sass.ImmF(-math.MaxFloat64),         // -INF below FP64
	sass.ImmF(math.Inf(1)),              // INF in every format
	sass.ImmF(1e10),                     // truncates past int32
	sass.Generic("+INF"),                // INF
	sass.Generic("-QNAN"),               // negative NaN
	sass.Generic("1.5"),                 // parsed number
	sass.Generic("bogus"),               // unparsable: 0
	sass.ImmI(0x3c00),                   // FP16 1.0, FP32 subnormal
	sass.ImmI(-7),                       // FP32 and FP16 NaN bits
	sass.ImmI(0x7f80_0000),              // FP32 INF bits
	sass.Mem(2, 8),                      // no value
	sass.Special(sass.SRTidX),           // no value
	sass.PredOp(0, true),                // no value
	{Type: sass.OperandInvalid, Reg: 2}, // no value
}

// withMods returns op with the given sign modifiers.
func withMods(op sass.Operand, neg, abs bool) sass.Operand {
	op.Neg, op.Abs = neg, abs
	return op
}

// operandCtx builds the register file and constant bank above on a
// standalone full-warp context.
func operandCtx(t *testing.T) *InjCtx {
	t.Helper()
	ctx := NewToolCtx(8)
	for l := 0; l < WarpSize; l++ {
		ctx.Warp.SetReg(l, 2, operandLo[l%len(operandLo)])
		ctx.Warp.SetReg(l, 3, operandHi[l%len(operandHi)])
	}
	for off, v := range operandCBank {
		ctx.Dev.SetParam(off, v)
	}
	return ctx
}

// eachOperand runs body for every operand kind under every modifier.
func eachOperand(t *testing.T, body func(t *testing.T, op *sass.Operand)) {
	for _, kind := range operandKinds {
		for _, m := range []struct{ neg, abs bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			op := withMods(kind, m.neg, m.abs)
			name := fmt.Sprintf("%v(type%d),neg=%t,abs=%t", kind, kind.Type, m.neg, m.abs)
			t.Run(name, func(t *testing.T) { body(t, &op) })
		}
	}
}

// TestCompiledOperandReadsMatchInterpreter holds the executor's compiled
// FP32 (with and without FTZ), integer, FP64 and FP16 reads to the
// interpreter's, bit for bit, on every lane.
func TestCompiledOperandReadsMatchInterpreter(t *testing.T) {
	ctx := operandCtx(t)
	ex := &executor{d: ctx.Dev}
	w := ctx.Warp
	eachOperand(t, func(t *testing.T, op *sass.Operand) {
		for l := 0; l < WarpSize; l++ {
			for _, ftz := range []bool{false, true} {
				if got, want := compiledF32(ctx, op, ftz, l), math.Float32bits(ex.srcF32(w, l, op, ftz)); got != want {
					t.Errorf("lane %d FP32 ftz=%v: compiled %#08x, interpreter %#08x", l, ftz, got, want)
				}
			}
			if got, want := compiledInt(ctx, op, l), ex.srcInt(w, l, op); got != want {
				t.Errorf("lane %d int: compiled %#08x, interpreter %#08x", l, got, want)
			}
			if got, want := math.Float32bits(compiledF16(ctx, op, l)), math.Float32bits(ex.srcF16(w, l, op)); got != want {
				t.Errorf("lane %d FP16: compiled %#08x, interpreter %#08x", l, got, want)
			}
			if op.IsRZ() {
				continue // validation rejects RZ as a 64-bit pair
			}
			if got, want := compiledF64(ctx, op, l), math.Float64bits(ex.srcF64(w, l, op)); got != want {
				t.Errorf("lane %d FP64: compiled %#016x, interpreter %#016x", l, got, want)
			}
		}
	})
}

// interpClass is the class the analyzer reads for op in format f: the
// interpreter's read with the sign modifiers cleared, and VAL0 for the
// operand kinds that carry no floating-point value (Listing 1).
func interpClass(ex *executor, w *Warp, l int, op *sass.Operand, f fpval.Format) fpval.Class {
	switch op.Type {
	case sass.OperandReg, sass.OperandCBank, sass.OperandImmDouble, sass.OperandGeneric:
	default:
		return fpval.Zero
	}
	raw := withMods(*op, false, false)
	switch f {
	case fpval.FP64:
		return fpval.Classify64(math.Float64bits(ex.srcF64(w, l, &raw)))
	case fpval.FP16:
		return fpval.Classify16(fpval.F16FromFloat32(ex.srcF16(w, l, &raw)))
	case fpval.BF16:
		return fpval.ClassifyBF16(uint16(ex.srcBits32(w, l, &raw)))
	}
	return fpval.Classify32(ex.srcBits32(w, l, &raw))
}

// TestAnalyzerWorstMatchesInterpreter holds the analyzer's compiled
// worst-lane class to the interpreter's reads: for each lane alone, and
// for the full warp, the most severe lane class.
func TestAnalyzerWorstMatchesInterpreter(t *testing.T) {
	ctx := operandCtx(t)
	ex := &executor{d: ctx.Dev}
	w := ctx.Warp
	eachOperand(t, func(t *testing.T, op *sass.Operand) {
		for _, f := range []fpval.Format{fpval.FP32, fpval.FP64, fpval.FP16, fpval.BF16} {
			if f == fpval.FP64 && op.IsRZ() {
				continue // validation rejects RZ as a 64-bit pair
			}
			s := LowerClassSrc(op, f)
			worst := fpval.Zero
			for l := 0; l < WarpSize; l++ {
				want := interpClass(ex, w, l, op, f)
				if want.Severity() > worst.Severity() {
					worst = want
				}
				ctx.ExecMask = 1 << uint(l)
				if got := s.Worst(ctx); got != want {
					t.Errorf("%v lane %d: Worst %v, interpreter %v", f, l, got, want)
				}
			}
			ctx.ExecMask = fullExec
			if got := s.Worst(ctx); got != worst {
				t.Errorf("%v full warp: Worst %v, interpreter %v", f, got, worst)
			}
		}
	})
}

// TestShadowReadsMatchInterpreter holds the shadow sanitizer's compiled
// reads to the interpreter's FP32 (unflushed) and FP16 reads promoted to
// float64: the modified value on every operand, and for register operands
// the register identity, its raw bits and the unmodified base.
func TestShadowReadsMatchInterpreter(t *testing.T) {
	ctx := operandCtx(t)
	ex := &executor{d: ctx.Dev}
	w := ctx.Warp
	read := func(l int, op *sass.Operand, f fpval.Format) float64 {
		if f == fpval.FP16 {
			return float64(ex.srcF16(w, l, op))
		}
		return float64(ex.srcF32(w, l, op, false))
	}
	eachOperand(t, func(t *testing.T, op *sass.Operand) {
		for _, f := range []fpval.Format{fpval.FP32, fpval.FP16} {
			s := LowerValSrc(op, f)
			reg, isReg := s.Reg()
			if wantReg := op.IsPlainReg(); isReg != wantReg || (isReg && reg != op.Reg) {
				t.Fatalf("%v: Reg() = %d, %v; want %d, %v", f, reg, isReg, op.Reg, wantReg)
			}
			raw := withMods(*op, false, false)
			for l := 0; l < WarpSize; l++ {
				if got, want := math.Float64bits(s.Val(ctx, l)), math.Float64bits(read(l, op, f)); got != want {
					t.Errorf("%v lane %d: Val %#016x, interpreter %#016x", f, l, got, want)
				}
				if !isReg {
					continue
				}
				if got, want := s.Bits(ctx, l), w.regs[l][op.Reg]; got != want {
					t.Errorf("%v lane %d: Bits %#08x, register %#08x", f, l, got, want)
				}
				base := s.Base(ctx, l)
				if got, want := math.Float64bits(base), math.Float64bits(read(l, &raw, f)); got != want {
					t.Errorf("%v lane %d: Base %#016x, interpreter %#016x", f, l, got, want)
				}
				if got, want := math.Float64bits(s.Mod(base)), math.Float64bits(read(l, op, f)); got != want {
					t.Errorf("%v lane %d: Mod(Base) %#016x, interpreter %#016x", f, l, got, want)
				}
			}
		}
	})
}

// TestSrc32Size keeps the 32-bit compiled operand at the size it had as a
// separate FP32/integer type, 40 bytes: every mop holds three.
func TestSrc32Size(t *testing.T) {
	if n := unsafe.Sizeof(src[uint32]{}); n != 40 {
		t.Errorf("src[uint32] is %d bytes, want 40", n)
	}
}
