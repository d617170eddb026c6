package device

import (
	"math"
	"testing"

	"gpufpx/internal/sass"
)

// fmulShapes runs one FMUL of every operand shape the executor tiers
// specialize: reg×reg, reg×const-bank, sign/abs-modified, .FTZ, a
// modified register times a uniform, an immediate, and all-uniform. Lanes
// whose tid&c[0x170] is nonzero branch past the body, so a nonzero mask
// runs it with a sparse exec mask (thunk mask walks in lowered, the sparse
// closure paths in fused).
var fmulShapes = sass.MustParse("fmul_shapes", `
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
`)

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
	for _, mask := range []uint32{0, 0x1, 0x5} {
		var ref []uint32
		var refCycles uint64
		for _, mode := range allTiers {
			d := New(DefaultConfig())
			a, b, out := d.Alloc(4*32), d.Alloc(4*32), d.Alloc(32*32)
			for l, p := range fmulPairs {
				d.Store32(a+uint32(4*l), p[0])
				d.Store32(b+uint32(4*l), p[1])
			}
			st, err := d.launch(&Launch{Kernel: fmulShapes, GridDim: 1, BlockDim: 32,
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
		// product, so the agreement above is over the right bits.
		for l, p := range fmulPairs {
			if uint32(l)&mask != 0 {
				continue
			}
			a, b := math.Float32frombits(p[0]), math.Float32frombits(p[1])
			want := math.Float32bits(refNaNMul32(a, b))
			if finite32(a) && finite32(b) {
				want = math.Float32bits(refMul32(a, b))
			}
			if ref[8*l] != want {
				t.Errorf("mask %#x lane %d: FMUL = %#08x, want %#08x", mask, l, ref[8*l], want)
			}
		}
	}
	fk := programFor(fmulShapes).fk
	chains := 0
	for _, r := range fk.regions {
		for _, s := range r.segs {
			if s.ch != nil {
				chains++
			}
		}
	}
	if chains == 0 {
		t.Fatal("no fused chain: the fused tier never ran the FMUL closures")
	}
}
