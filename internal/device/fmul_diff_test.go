package device

import (
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// fmulShapes runs one FMUL of every operand shape the executor tiers
// specialize: reg×reg, reg×const-bank, sign/abs-modified, .FTZ, a
// modified register times a uniform, an immediate, and all-uniform. Lanes
// whose tid&c[0x170] is nonzero branch past the body, so a nonzero mask
// runs it with a sparse exec mask (the closures' mask walks instead of
// their full-warp column loops).
var fmulShapes = sass.MustParse("fmul_shapes", fmulShapesSrc)

const fmulShapesSrc = shapesHead + `
FMUL R8, R5, R6 ;
FMUL R9, R5, c[0x0][0x168] ;
FMUL R10, -R5, |R6| ;
FMUL.FTZ R11, R5, R6 ;
FMUL R12, -|R5|, c[0x0][0x168] ;
FMUL R13, R6, 1.5 ;
FMUL R14, c[0x0][0x168], c[0x0][0x174] ;
FMUL.FTZ R15, c[0x0][0x168], c[0x0][0x174] ;
` + shapesStores

// shapesHead is the shape kernels' prologue: lane l loads its pair into R5
// and R6, points R20 at its eight output words, and lanes with
// tid&c[0x170] nonzero branch to L_skip.
const shapesHead = `
S2R R0, SR_TID.X ;
SHL R1, R0, 0x2 ;
MOV R2, c[0x0][0x160] ;
MOV R3, c[0x0][0x164] ;
IADD R2, R2, R1 ;
IADD R3, R3, R1 ;
LDG.E R5, [R2] ;
LDG.E R6, [R3] ;
SHL R1, R0, 0x5 ;
MOV R20, c[0x0][0x16c] ;
IADD R20, R20, R1 ;
LOP.AND R7, R0, c[0x0][0x170] ;
ISETP.NE.AND P0, PT, R7, RZ, PT ;
@P0 BRA L_skip ;`

// shapesStores stores R8..R15 as the lane's eight output words.
const shapesStores = `STG.E [R20], R8 ;
STG.E [R20+0x4], R9 ;
STG.E [R20+0x8], R10 ;
STG.E [R20+0xc], R11 ;
STG.E [R20+0x10], R12 ;
STG.E [R20+0x14], R13 ;
STG.E [R20+0x18], R14 ;
STG.E [R20+0x1c], R15 ;
L_skip:
EXIT ;
`

// fmulPairs are per-lane operands whose products are subnormal, signed
// zero, overflow to INF, or NaN (quiet and signaling payloads, INF×0), plus
// subnormal inputs that .FTZ flushes.
var fmulPairs = [32][2]uint32{
	{0x1e3ce508, 0x1e3ce508}, // 1e-20 × 1e-20: subnormal
	{0x9e3ce508, 0x1e3ce508}, // negative subnormal
	{0x1f800000, 0x1f800000}, // 2^-64 × 2^-64 = 2^-128: subnormal
	{0x20000000, 0x1f7fffff}, // just below min normal
	{0x20000000, 0x20000000}, // exactly min normal
	{0x00400000, 0x3f800000}, // subnormal × 1 (FTZ flushes)
	{0x00000001, 0x3f000000}, // min subnormal × 0.5 → 0 (ties to even)
	{0x00000003, 0x3f000000}, // 3·2^-149 × 0.5: midpoint, rounds to even
	{0x0d000000, 0x0d000000}, // underflow to +0
	{0x8d000000, 0x0d000000}, // underflow to -0
	{0x00000000, 0x80000000}, // +0 × -0
	{0x80000000, 0x80000000}, // -0 × -0
	{0x5f800000, 0x5f800000}, // 2^64 × 2^64: overflow to INF
	{0x7f7fffff, 0x3f800001}, // max × (1+ulp): overflow
	{0x7f7fffff, 0xbf800000}, // -max
	{0x7f800000, 0x00000000}, // INF × 0: NaN
	{0xff800000, 0x3f800000}, // -INF × 1
	{0x7fc12345, 0x3f800000}, // quiet NaN payload
	{0x7f812345, 0x3f800000}, // signaling NaN payload
	{0x3f800000, 0xffc54321}, // NaN in b
	{0x7fc11111, 0x7fc22222}, // two payloads: a's wins
	{0x3f800000, 0x3f800000}, // 1 × 1
	{0x40490fdb, 0x402df854}, // π × e
	{0x3dcccccd, 0x3dcccccd}, // 0.1 × 0.1
	{0x7f000000, 0x3f000000}, // 2^127 × 0.5
	{0x00800000, 0x3f7fffff}, // min normal × (1-ulp): subnormal
	{0x00ffffff, 0x3f000000}, // rounds across the boundary
	{0x26000000, 0x19000000}, // 2^-51 × 2^-77 = 2^-128
	{0x1a000000, 0x1a000000}, // 2^-75 × 2^-75: below min subnormal → 0
	{0x1a800000, 0x1a000000}, // 2^-74 × 2^-75 = 2^-149: min subnormal
	{0xc0000000, 0x00400000}, // -2 × subnormal
	{0x12345678, 0x0abcdef0}, // deep underflow
}

// TestFMULTiersAgree is the cross-tier FMUL differential: every shape, under
// a full and two sparse exec masks, must leave identical bits and cycles
// under interp, lowered and fused.
func TestFMULTiersAgree(t *testing.T) {
	const uniA, uniB = 0x1e3ce508, 0x9e3ce508 // the c-bank operands: ±1e-20
	checkShapeTiers(t, fmulShapes, fmulPairs, uniA, uniB, bits32(refMulNaN32))
	if n := fusedSites(fmulShapes, sass.OpFMUL); n != 8 {
		t.Fatalf("%d of 8 FMUL sites in fused region bodies: the fused tier never ran their closures fused", n)
	}
}

// faddShapes is fmulShapes with every FMUL an FADD.
var faddShapes = sass.MustParse("fadd_shapes", strings.ReplaceAll(fmulShapesSrc, "FMUL", "FADD"))

// faddPairs are per-lane operands whose sums round at ties, cancel to
// signed zeros, land in or leave the subnormal range, overflow, or are NaN
// (payloads, one signaling, INF-INF), plus subnormal inputs that .FTZ
// flushes.
var faddPairs = [32][2]uint32{
	{0x00000001, 0x00000001}, // min subnormal + min subnormal
	{0x80000001, 0x00000001}, // cancels to +0
	{0x00800000, 0x80000001}, // min normal - min subnormal: subnormal
	{0x807fffff, 0x00800000}, // -max subnormal + min normal = min subnormal
	{0x00400000, 0x00400000}, // subnormals summing to min normal (FTZ flushes)
	{0x00400000, 0x3f800000}, // subnormal + 1 (FTZ flushes)
	{0x3f800000, 0xbf800000}, // 1 - 1 = +0
	{0x80000000, 0x80000000}, // -0 + -0 = -0
	{0x00000000, 0x80000000}, // +0 + -0 = +0
	{0x3f800000, 0x33800000}, // 1 + half ulp: tie, rounds to even (1)
	{0x3f800001, 0x33800000}, // tie, rounds to even (up)
	{0x4b800000, 0x3f800000}, // 2^24 + 1: tie, rounds to even
	{0x3f800000, 0xb3800000}, // 1 - 2^-24: exact
	{0x7f7fffff, 0x73000000}, // max + half ulp: tie rounds to INF
	{0x7f7fffff, 0x7f7fffff}, // overflow to INF
	{0xff7fffff, 0x7f7fffff}, // -max + max = +0
	{0x5f800000, 0xdf800000}, // 2^64 - 2^64 = +0
	{0x7f800000, 0x3f800000}, // INF + 1
	{0x7f800000, 0xff800000}, // INF - INF: NaN
	{0x7fc12345, 0x3f800000}, // quiet NaN payload in a
	{0x7f812345, 0x3f800000}, // signaling NaN payload in a
	{0x3f800000, 0xffc54321}, // NaN in b
	{0x3f800000, 0x7f854321}, // signaling NaN in b
	{0x7fc11111, 0x7fc22222}, // two payloads: a's wins
	{0x7f811111, 0x7fc22222}, // signaling a, quiet b: a's, quieted
	{0x3f800000, 0x3f800000}, // 1 + 1
	{0x40490fdb, 0x402df854}, // π + e
	{0x3dcccccd, 0x3e4ccccd}, // 0.1 + 0.2
	{0x7f000000, 0x7f000000}, // 2^127 + 2^127: overflow
	{0x12345678, 0x0abcdef0}, // tiny operands, far apart
	{0xc0000000, 0x00400000}, // -2 + subnormal
	{0x4b800001, 0x3f800000}, // tie, rounds to even (up)
}

// TestFADDTiersAgree is TestFMULTiersAgree for FADD: every shape under a
// full and two sparse exec masks, identical bits and cycles on every tier,
// and the interpreter's plain column equal to the correctly rounded sum. A
// NaN sum takes a's payload, quieted, when a is NaN — add32's rule; the
// lane adding 0x7fc11111 and 0x7fc22222 is the case a bare host add
// resolves by operand order.
func TestFADDTiersAgree(t *testing.T) {
	const uniA, uniB = 0x00400000, 0x80000003 // the c-bank operands: subnormals
	checkShapeTiers(t, faddShapes, faddPairs, uniA, uniB, bits32(refAdd32))
	if n := fusedSites(faddShapes, sass.OpFADD); n != 8 {
		t.Fatalf("%d of 8 FADD sites in fused region bodies: the fused tier never ran their closures fused", n)
	}
}

// checkShapeTiers launches a shapes kernel (shapesHead's layout: eight
// output words per lane, lanes paired with pairs, c-bank operands uniA and
// uniB) under a full and two sparse exec masks on every tier. Each tier
// must leave the interpreter's bits and cycles, and the interpreter's first
// word of each lane, its plain reg×reg shape, must equal want of the lane's
// pair (unchecked when want is nil).
func checkShapeTiers(t *testing.T, k *sass.Kernel, pairs [32][2]uint32, uniA, uniB uint32, want func(a, b uint32) uint32) {
	t.Helper()
	for _, mask := range []uint32{0, 0x1, 0x5} {
		var ref []uint32
		var refCycles uint64
		for _, mode := range allTiers {
			d := New(DefaultConfig())
			a, b, out := d.Alloc(4*32), d.Alloc(4*32), d.Alloc(32*32)
			for l, p := range pairs {
				d.Store32(a+uint32(4*l), p[0])
				d.Store32(b+uint32(4*l), p[1])
			}
			st, err := d.launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32,
				Params: []uint32{a, b, uniA, out, mask, uniB}}, mode)
			if err != nil {
				t.Fatalf("mask %#x %s: %v", mask, mode, err)
			}
			got := make([]uint32, 8*32)
			for i := range got {
				got[i] = d.Load32(out + uint32(4*i))
			}
			if mode == tierInterp {
				ref, refCycles = got, st.Cycles
				continue
			}
			if st.Cycles != refCycles {
				t.Errorf("mask %#x %s: %d cycles, interp %d", mask, mode, st.Cycles, refCycles)
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Errorf("mask %#x %s: lane %d shape %d = %#08x, interp %#08x",
						mask, mode, i/8, i%8, got[i], ref[i])
				}
			}
		}
		// The interp column of the plain shape matches the reference
		// result, so the agreement above is over the right bits.
		for l, p := range pairs {
			if uint32(l)&mask != 0 || want == nil {
				continue
			}
			if w := want(p[0], p[1]); ref[8*l] != w {
				t.Errorf("mask %#x lane %d: %s = %#08x, want %#08x", mask, l, k.Name, ref[8*l], w)
			}
		}
	}
}

// fusedSites counts the sites with opcode op that k's fused program runs
// inside a region body of more than one thunk (no-op sites have none).
func fusedSites(k *sass.Kernel, op sass.Op) int {
	n := 0
	for _, r := range programFor(k).fk.regions {
		if len(r.fns) < 2 {
			continue
		}
		for pc := r.start; pc < r.end; pc++ {
			if in := &k.Instrs[pc]; in.Op == op && !discardsAll(in) {
				n++
			}
		}
	}
	return n
}

// bits32 lifts an FP32 reference to register bits.
func bits32(f func(a, b float32) float32) func(a, b uint32) uint32 {
	return func(a, b uint32) uint32 {
		return math.Float32bits(f(math.Float32frombits(a), math.Float32frombits(b)))
	}
}

// fp64ShapesSrc runs one FP64 op (%[1]s) in four shapes, each a register
// pair: reg×reg, reg×c-bank pair, sign/abs-modified, and all-uniform (a
// modified c-bank pair and an immediate). A lane's pair words become the
// high words of its operands (R4:R5 and R6:R7, low words zero), and the
// c-bank pair c[0x170] is (mask, uniB). %[2]s..%[5]s give DFMA its addend.
// Results are stored high word first.
const fp64ShapesSrc = shapesHead + `
MOV R7, R6 ;
MOV R6, RZ ;
MOV R4, RZ ;
%[1]s R8, R4, R6%[2]s ;
%[1]s R10, R4, c[0x0][0x170]%[3]s ;
%[1]s R12, -R4, |R6|%[4]s ;
%[1]s R14, -|c[0x0][0x170]|, 1.5%[5]s ;
STG.E [R20], R9 ;
STG.E [R20+0x4], R8 ;
STG.E [R20+0x8], R11 ;
STG.E [R20+0xc], R10 ;
STG.E [R20+0x10], R13 ;
STG.E [R20+0x14], R12 ;
STG.E [R20+0x18], R15 ;
STG.E [R20+0x1c], R14 ;
L_skip:
EXIT ;
`

// fp64Pairs are high words of FP64 operands whose sums and products round
// at ties, cancel to signed zeros, land in or leave the subnormal range,
// overflow, or are NaN (payloads, one signaling, INF-INF, INF×0).
var fp64Pairs = [32][2]uint32{
	{0x00000001, 0x00000001}, // subnormal + subnormal
	{0x80000001, 0x00000001}, // cancels to +0
	{0x00100000, 0x80000001}, // min normal - subnormal: subnormal
	{0x00000000, 0x80000000}, // +0, -0
	{0x80000000, 0x80000000}, // -0, -0
	{0x3ff00000, 0xbff00000}, // 1 - 1 = +0
	{0x3ff00000, 0x3ca00000}, // 1 + 2^-53: tie, rounds to even
	{0x3ff00000, 0x3cb00000}, // 1 + 2^-52: exact
	{0x7fefffff, 0x7fefffff}, // overflow to INF
	{0x7ff00000, 0xfff00000}, // INF - INF: NaN
	{0x7ff00000, 0x00000000}, // INF × 0: NaN
	{0x7ff80001, 0x3ff00000}, // quiet NaN payload in a
	{0x7ff00001, 0x3ff00000}, // signaling NaN payload in a
	{0x3ff00000, 0xfff80002}, // NaN in b
	{0x7ff80001, 0x7ff80002}, // two payloads: a's wins
	{0x7ff00001, 0x7ff80002}, // signaling a, quiet b: a's, quieted
	{0x1ff00000, 0x1ff00000}, // 2^-512 × 2^-512 = 2^-1024: subnormal
	{0x20000000, 0x1fefffff}, // product just below min normal
	{0x5ff00000, 0x5ff00000}, // 2^512 × 2^512: overflow
	{0x400921fb, 0x4005bf0a}, // π, e
	{0x3fb99999, 0x3fc99999}, // 0.1, 0.2
	{0x00080000, 0x3fe00000}, // subnormal × 0.5
	{0x00000003, 0x3fe00000}, // odd subnormal × 0.5: rounds to even
	{0x0000000f, 0x800fffff}, // subnormal operands of both signs
	{0x7fe00000, 0x7fe00000}, // 2^1023 + 2^1023: overflow
	{0xc0000000, 0x00080000}, // -2, subnormal
	{0x43300000, 0x3ff00000}, // 2^52 + 1
	{0x3ff00001, 0x3ff00001}, // (1+ulp)^2
	{0x3fd55555, 0x40080000}, // ~1/3 × 3
	{0x7ff00000, 0x3ff00000}, // INF + 1
	{0x01000000, 0x3ca00000}, // tiny × 2^-53: subnormal product
	{0x40000000, 0xc0000000}, // 2 - 2
}

// fp64Ref is a reference for the plain FP64 shape's high word, from the
// pair's high words.
func fp64Ref(op func(a, b float64) float64) func(a, b uint32) uint32 {
	return func(a, b uint32) uint32 {
		x, y := math.Float64frombits(uint64(a)<<32), math.Float64frombits(uint64(b)<<32)
		return uint32(math.Float64bits(op(x, y)) >> 32)
	}
}

// TestFP64TiersAgree runs DADD, DMUL and DFMA (a*b+a) through the shape
// harness; the plain shape's high word must match math/big.
func TestFP64TiersAgree(t *testing.T) {
	const uniA, uniB = 0x00000000, 0x000fffff // uniB: the c-bank pair's high word, subnormal
	dfma := func(a, b float64) float64 {
		if !finite64(a) || !finite64(b) {
			return math.FMA(a, b, a)
		}
		p := new(big.Float).SetPrec(bigExactPrec64).Mul(big64(a), big64(b))
		r, _ := p.Add(p, big64(a)).Float64()
		return r
	}
	for _, c := range []struct {
		op     string
		addend [4]string
		want   func(a, b float64) float64
	}{
		{"DADD", [4]string{}, refAdd64},
		{"DMUL", [4]string{}, refMul64},
		{"DFMA", [4]string{", R4", ", R6", ", -R6", ", c[0x0][0x170]"}, dfma},
	} {
		k := sass.MustParse(strings.ToLower(c.op)+"_shapes",
			fmt.Sprintf(fp64ShapesSrc, c.op, c.addend[0], c.addend[1], c.addend[2], c.addend[3]))
		t.Run(c.op, func(t *testing.T) {
			checkShapeTiers(t, k, fp64Pairs, uniA, uniB, fp64Ref(c.want))
		})
	}
}

// fp16ShapesSrc runs one FP16 op (%[1]s) in eight shapes over the low
// halves of the lane's pair: reg×reg, reg×c-bank, sign/abs-modified, an
// immediate, all-uniform, a modified c-bank, a squared register and a
// negated swap. %[2]s..%[9]s give HFMA2 its addends.
const fp16ShapesSrc = shapesHead + `
%[1]s R8, R5, R6%[2]s ;
%[1]s R9, R5, c[0x0][0x168]%[3]s ;
%[1]s R10, -R5, |R6|%[4]s ;
%[1]s R11, R6, 1.5%[5]s ;
%[1]s R12, c[0x0][0x168], c[0x0][0x174]%[6]s ;
%[1]s R13, |R5|, -c[0x0][0x174]%[7]s ;
%[1]s R14, R5, R5%[8]s ;
%[1]s R15, -R6, R5%[9]s ;
` + shapesStores

// fp16Pairs are FP16 operands (low halves) whose sums and products round at
// ties, cancel to signed zeros, land in or leave the subnormal range,
// overflow, or are NaN (payloads, one signaling, INF-INF, 0×INF).
var fp16Pairs = [32][2]uint32{
	{0x0001, 0x0001}, // min subnormal + min subnormal
	{0x8001, 0x0001}, // cancels to +0
	{0x0400, 0x8001}, // min normal - min subnormal: subnormal
	{0x03ff, 0x0001}, // max subnormal + min subnormal = min normal
	{0x0000, 0x8000}, // +0, -0
	{0x8000, 0x8000}, // -0, -0
	{0x3c00, 0xbc00}, // 1 - 1 = +0
	{0x3c00, 0x1000}, // 1 + 2^-11: tie, rounds to even
	{0x7bff, 0x7bff}, // overflow to INF
	{0x7bff, 0x5000}, // max + 32: tie rounds to INF
	{0x7c00, 0xfc00}, // INF - INF: NaN
	{0x7c00, 0x3c00}, // INF + 1
	{0x7e01, 0x3c00}, // quiet NaN payload in a
	{0x7c01, 0x3c00}, // signaling NaN payload in a
	{0x3c00, 0xfe02}, // NaN in b
	{0x7e01, 0x7e02}, // two payloads: a's wins
	{0x7c01, 0x7e02}, // signaling a, quiet b
	{0x4248, 0x4170}, // π, e
	{0x2e66, 0x2e66}, // 0.1, 0.1
	{0x1c00, 0x1c00}, // 2^-8 × 2^-8 = 2^-16: subnormal
	{0x0200, 0x3800}, // subnormal × 0.5
	{0x0001, 0x3800}, // min subnormal × 0.5 → 0 (ties to even)
	{0x0003, 0x3800}, // 3·2^-24 × 0.5: midpoint, rounds to even
	{0x5c00, 0x5c00}, // 256 × 256: overflow
	{0xc000, 0x0200}, // -2, subnormal
	{0x3c01, 0x3c01}, // (1+ulp)^2
	{0x3555, 0x4200}, // ~1/3 × 3
	{0x0000, 0x7c00}, // 0 × INF: NaN
	{0x1400, 0x0800}, // small operands far apart
	{0x6000, 0x6000}, // 512 + 512, 512 × 512: overflow
	{0x3c00, 0x3c00}, // 1, 1
	{0x4000, 0xc000}, // 2 - 2
}

// TestFP16TiersAgree runs HADD2, HMUL2 and HFMA2 (a*b+b in the plain
// shape) through the shape harness. The plain shape must match the exact
// result rounded to float32 and then to FP16, as the FP16 units round.
func TestFP16TiersAgree(t *testing.T) {
	const uniA, uniB = 0x0001, 0x83ff // the c-bank operands: ±subnormals
	fp16 := func(ref func(x, y float32) float32) func(a, b uint32) uint32 {
		return func(a, b uint32) uint32 {
			return uint32(fpval.F16FromFloat32(ref(fpval.F16ToFloat32(uint16(a)), fpval.F16ToFloat32(uint16(b)))))
		}
	}
	hfma := func(x, y float32) float32 {
		if finite32(x) && finite32(y) {
			return refFMA32(x, y, y)
		}
		return float32(math.FMA(float64(x), float64(y), float64(y)))
	}
	for _, c := range []struct {
		op     string
		addend [8]string
		want   func(x, y float32) float32
	}{
		{"HADD2", [8]string{}, refAdd32},
		{"HMUL2", [8]string{}, refMulNaN32},
		{"HFMA2", [8]string{", R6", ", R5", ", -R5", ", c[0x0][0x168]", ", c[0x0][0x174]", ", R5", ", R6", ", |R5|"}, hfma},
	} {
		a := c.addend
		k := sass.MustParse(strings.ToLower(c.op)+"_shapes",
			fmt.Sprintf(fp16ShapesSrc, c.op, a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]))
		t.Run(c.op, func(t *testing.T) {
			checkShapeTiers(t, k, fp16Pairs, uniA, uniB, fp16(c.want))
		})
	}
}

// mufuShapesSrc runs one MUFU mode (%[1]s) in eight shapes: both pair
// registers, each negated or absolute, the two c-bank operands (one
// negated) and an immediate.
const mufuShapesSrc = shapesHead + `
MUFU.%[1]s R8, R5 ;
MUFU.%[1]s R9, R6 ;
MUFU.%[1]s R10, -R5 ;
MUFU.%[1]s R11, |R6| ;
MUFU.%[1]s R12, c[0x0][0x168] ;
MUFU.%[1]s R13, -c[0x0][0x174] ;
MUFU.%[1]s R14, 2.5 ;
MUFU.%[1]s R15, -|R5| ;
` + shapesStores

// mufuPairs are MUFU operands: signed zeros, subnormals (whose reciprocals
// overflow or stay finite), the normal extremes, units, negatives (NaN
// roots), INFs and NaNs with payloads. As RCP64H sources they are the high
// words of the same kinds of FP64 values.
var mufuPairs = [32][2]uint32{
	{0x00000000, 0x80000000}, // ±0
	{0x00000001, 0x80000001}, // ±min subnormal
	{0x007fffff, 0x807fffff}, // ±max subnormal
	{0x00400000, 0x00000003}, // subnormals
	{0x00800000, 0x80800000}, // ±min normal
	{0x7f7fffff, 0xff7fffff}, // ±max normal: reciprocals subnormal, flushed
	{0x3f800000, 0xbf800000}, // ±1
	{0x40000000, 0x3f000000}, // 2, 0.5
	{0x40800000, 0x3e800000}, // 4, 0.25
	{0x40490fdb, 0xc0490fdb}, // ±π
	{0x7f800000, 0xff800000}, // ±INF
	{0x7fc12345, 0x3f800000}, // quiet NaN payload
	{0x7f812345, 0x3f800000}, // signaling NaN payload
	{0xffc54321, 0x7fc11111}, // two payloads
	{0x3f800001, 0x3f7fffff}, // 1 ± ulp
	{0x4b000000, 0x4b800001}, // 2^23, 2^24+2
	{0x3dcccccd, 0x3e4ccccd}, // 0.1, 0.2
	{0x42c80000, 0xc2c80000}, // ±100
	{0x7e800000, 0x7f000000}, // 2^126, 2^127: reciprocals at the subnormal boundary
	{0x01000000, 0x00ffffff}, // just above and below 2^-125
	{0x1f800000, 0x5f800000}, // 2^-64, 2^64
	{0x3fb504f3, 0x3f3504f3}, // √2, √2/2
	{0x41200000, 0xc1200000}, // ±10
	{0x3a83126f, 0x3c23d70a}, // 0.001, 0.01
	{0x447a0000, 0x461c4000}, // 1000, 10000
	{0x42000000, 0xc2000000}, // ±32: EX2 near the range ends
	{0x43000000, 0xc3160000}, // 128, -150: EX2 overflows, underflows
	{0x3f000001, 0xbf7fffff}, // 0.5 + ulp, -(1 - ulp)
	{0x4c000000, 0x3ff00000}, // 2^25; 1.875 (the FP64 1.0's high word)
	{0x7ff00000, 0x7ff80001}, // FP32 NaNs; FP64 INF and a NaN payload
	{0x00100000, 0x80100000}, // ±FP64 min normal's high word
	{0x3fe00000, 0x40080000}, // FP64 0.5 and 3's high words
}

// TestMUFUTiersAgree runs every MUFU mode, RCP64H included, through the
// shape harness. RCP, SQRT and RCP64H are correctly rounded and must match
// math/big; RSQ, SIN, COS, EX2 and LG2 are held only to the interpreter
// (TestMUFUWithinOneULP bounds RSQ).
func TestMUFUTiersAgree(t *testing.T) {
	const uniA, uniB = 0x00400000, 0x7f7fffff // the c-bank operands: a subnormal, max normal
	fp32 := func(mode uint8) func(a, b uint32) uint32 {
		return func(a, b uint32) uint32 {
			if x := math.Float32frombits(a); x == x {
				return math.Float32bits(refMUFU(mode, x))
			}
			return a | 0x00400000 // a NaN propagates quieted
		}
	}
	rcp64h := func(a, b uint32) uint32 {
		x := math.Float64frombits(uint64(a) << 32)
		r := 1 / x // math/big takes neither 0, INF nor NaN
		if finite64(x) && x != 0 {
			one := new(big.Float).SetPrec(bigExactPrec64).SetInt64(1)
			r, _ = one.Quo(one, big64(x)).Float64()
		}
		return uint32(math.Float64bits(r) >> 32)
	}
	for _, c := range []struct {
		mode string
		want func(a, b uint32) uint32
	}{
		{"RCP", fp32(mufuRCP)}, {"SQRT", fp32(mufuSQRT)}, {"RSQ", nil},
		{"SIN", nil}, {"COS", nil}, {"EX2", nil}, {"LG2", nil},
		{"RCP64H", rcp64h},
	} {
		k := sass.MustParse("mufu_shapes_"+c.mode, fmt.Sprintf(mufuShapesSrc, c.mode))
		t.Run(c.mode, func(t *testing.T) {
			checkShapeTiers(t, k, mufuPairs, uniA, uniB, c.want)
			if n := fusedSites(k, sass.OpMUFU); n != 8 {
				t.Fatalf("%d of 8 MUFU sites in fused region bodies", n)
			}
		})
	}
}

// redShapes runs RED on each lane's own words (ADD.F32 both ways round,
// MAX, MIN and IADD over a stored a, with b as the source) and, on lane 0's
// last two words, one ADD.F32 accumulator per pair column that every
// executing lane adds into in lane order.
var redShapes = sass.MustParse("red_shapes", shapesHead+`
STG.E [R20], R5 ;
RED.E.ADD.F32 [R20], R6 ;
STG.E [R20+0x4], R6 ;
RED.E.ADD.F32 [R20+0x4], R5 ;
STG.E [R20+0x8], R5 ;
RED.E.MAX [R20+0x8], R6 ;
STG.E [R20+0xc], R5 ;
RED.E.MIN [R20+0xc], R6 ;
STG.E [R20+0x10], R5 ;
RED.E.IADD [R20+0x10], R6 ;
MOV R22, c[0x0][0x16c] ;
RED.E.ADD.F32 [R22+0x18], R5 ;
RED.E.ADD.F32 [R22+0x1c], R6 ;
L_skip:
EXIT ;
`)

// TestREDTiersAgree runs RED.ADD.F32 (and RED's other operations) through
// the shape harness over faddPairs; a lane's first word is add32's
// correctly rounded sum under its NaN rule.
func TestREDTiersAgree(t *testing.T) {
	checkShapeTiers(t, redShapes, faddPairs, 0, 0, bits32(refAdd32))
}
