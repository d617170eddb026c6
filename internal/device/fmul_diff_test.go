package device

import (
	"math"
	"math/big"
	"strings"
	"testing"

	"gpufpx/internal/sass"
)

// fmulShapes runs one FMUL of every operand shape the executor tiers
// specialize: reg×reg, reg×const-bank, sign/abs-modified, .FTZ, a
// modified register times a uniform, an immediate, and all-uniform. Lanes
// whose tid&c[0x170] is nonzero branch past the body, so a nonzero mask
// runs it with a sparse exec mask (the closures' mask walks instead of
// their full-warp column loops).
var fmulShapes = sass.MustParse("fmul_shapes", fmulShapesSrc)

const fmulShapesSrc = `
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
@P0 BRA L_skip ;
FMUL R8, R5, R6 ;
FMUL R9, R5, c[0x0][0x168] ;
FMUL R10, -R5, |R6| ;
FMUL.FTZ R11, R5, R6 ;
FMUL R12, -|R5|, c[0x0][0x168] ;
FMUL R13, R6, 1.5 ;
FMUL R14, c[0x0][0x168], c[0x0][0x174] ;
FMUL.FTZ R15, c[0x0][0x168], c[0x0][0x174] ;
STG.E [R20], R8 ;
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
	checkShapeTiers(t, fmulShapes, fmulPairs, uniA, uniB, func(a, b float32) float32 {
		if finite32(a) && finite32(b) {
			return refMul32(a, b)
		}
		return refNaNMul32(a, b)
	})
	if n := chainedSites(fmulShapes, sass.OpFMUL); n != 8 {
		t.Fatalf("%d of 8 FMUL sites in fused chains: the fused tier never ran their closures as a chain", n)
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
	checkShapeTiers(t, faddShapes, faddPairs, uniA, uniB, func(a, b float32) float32 {
		switch {
		case a != a:
			return math.Float32frombits(math.Float32bits(a) | 0x00400000)
		case b != b:
			return math.Float32frombits(math.Float32bits(b) | 0x00400000)
		case !finite32(a) || !finite32(b):
			return a + b
		}
		f, _ := new(big.Float).SetPrec(bigExactPrec).Add(bigOf(a), bigOf(b)).Float32()
		return f
	})
	if n := chainedSites(faddShapes, sass.OpFADD); n != 8 {
		t.Fatalf("%d of 8 FADD sites in fused chains: the fused tier never ran their closures as a chain", n)
	}
}

// checkShapeTiers launches a shapes kernel (fmulShapesSrc's layout: eight
// shapes per lane, lanes paired with pairs, c-bank operands uniA and uniB)
// under a full and two sparse exec masks on every tier. Each tier must
// leave the interpreter's bits and cycles, and the interpreter's plain
// reg×reg column must equal want.
func checkShapeTiers(t *testing.T, k *sass.Kernel, pairs [32][2]uint32, uniA, uniB uint32, want func(a, b float32) float32) {
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
			if uint32(l)&mask != 0 {
				continue
			}
			w := math.Float32bits(want(math.Float32frombits(p[0]), math.Float32frombits(p[1])))
			if ref[8*l] != w {
				t.Errorf("mask %#x lane %d: %s = %#08x, want %#08x", mask, l, k.Name, ref[8*l], w)
			}
		}
	}
}

// chainedSites counts the sites with opcode op that k's fused program runs
// inside a chain segment of more than one closure.
func chainedSites(k *sass.Kernel, op sass.Op) int {
	prog := programFor(k)
	n := 0
	for _, r := range prog.fk.regions {
		for _, s := range r.segs {
			if len(s.fns) < 2 {
				continue
			}
			for pc := s.start; pc < s.end; pc++ {
				if k.Instrs[pc].Op == op && prog.low.class[pc] == lowClassChain {
					n++
				}
			}
		}
	}
	return n
}
