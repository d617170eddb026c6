package device

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// The FP32 arithmetic helpers are checked against math/big, which shares no
// code with them: the exact product or sum is formed at a precision wide
// enough to hold it (a float32 product spans 48 bits; a float32 FMA sum
// spans at most 2^256 down to 2^-298) and rounded once by Float32, which
// rounds to nearest-even with subnormals and overflow handled.

const bigExactPrec = 1024

func bigOf(v float32) *big.Float {
	return new(big.Float).SetPrec(bigExactPrec).SetFloat64(float64(v))
}

func refMul32(a, b float32) float32 {
	f, _ := new(big.Float).SetPrec(bigExactPrec).Mul(bigOf(a), bigOf(b)).Float32()
	return f
}

func refFMA32(a, b, c float32) float32 {
	p := new(big.Float).SetPrec(bigExactPrec).Mul(bigOf(a), bigOf(b))
	f, _ := p.Add(p, bigOf(c)).Float32()
	return f
}

func finite32(v float32) bool { return !math.IsInf(float64(v), 0) && !math.IsNaN(float64(v)) }

// specials32 are the exception-rich operands: signed zeros, the subnormal
// and normal extremes, unit values, the products that land just above and
// below the subnormal boundary and the overflow edge, and non-finite values
// including NaNs with payloads.
var specials32 = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x80000001, // ±min subnormal
	0x007fffff, 0x807fffff, // ±max subnormal
	0x00400000, 0x00000003, // subnormals
	0x00800000, 0x80800000, // ±min normal
	0x7f7fffff, 0xff7fffff, // ±max normal
	0x3f800000, 0xbf800000, // ±1
	0x3f800001, 0x3f7fffff, // 1 ± ulp
	0x1f800000, 0x1f7fffff, // ~2^-64: products near 2^-128 (subnormal)
	0x20000000, 0x1fffffff, // ~2^-63: products at the min-normal boundary
	0x5f800000, 0x5f7fffff, // 2^64: products at the overflow edge
	0x5f800001,
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00000, // quiet NaNs
	0x7fc12345, 0x7f812345, // NaN payloads, one signaling
}

func randF32(r *rand.Rand) float32 {
	switch r.Intn(4) {
	case 0:
		return math.Float32frombits(specials32[r.Intn(len(specials32))])
	case 1:
		// Small exponents, so products and sums reach the subnormal range.
		return math.Float32frombits(r.Uint32()&0x80ffffff | uint32(r.Intn(0x48))<<23)
	default:
		return math.Float32frombits(r.Uint32())
	}
}

func checkMul32(t *testing.T, a, b float32) {
	t.Helper()
	got := mul32(a, b)
	var want float32
	if finite32(a) && finite32(b) {
		want = refMul32(a, b)
	} else {
		want = refNaNMul32(a, b)
	}
	if math.Float32bits(got) != math.Float32bits(want) {
		t.Errorf("mul32(%#08x, %#08x) = %#08x, want %#08x",
			math.Float32bits(a), math.Float32bits(b), math.Float32bits(got), math.Float32bits(want))
	}
}

// refNaNMul32 is the non-finite product: a NaN operand propagates quieted,
// a's payload first. Without a NaN operand (INF×finite, INF×0) the host
// multiply has no payload to choose and is the reference.
func refNaNMul32(a, b float32) float32 {
	switch {
	case a != a:
		return math.Float32frombits(math.Float32bits(a) | 0x00400000)
	case b != b:
		return math.Float32frombits(math.Float32bits(b) | 0x00400000)
	}
	return a * b
}

func checkFMA32(t *testing.T, a, b, c float32) {
	t.Helper()
	got := fma32(a, b, c)
	var want float32
	if finite32(a) && finite32(b) && finite32(c) {
		want = refFMA32(a, b, c)
	} else {
		// Non-finite inputs keep math.FMA's bits.
		want = float32(math.FMA(float64(a), float64(b), float64(c)))
	}
	if math.Float32bits(got) != math.Float32bits(want) {
		t.Errorf("fma32(%#08x, %#08x, %#08x) = %#08x, want %#08x",
			math.Float32bits(a), math.Float32bits(b), math.Float32bits(c),
			math.Float32bits(got), math.Float32bits(want))
	}
}

func samples(short, long int) int {
	if testing.Short() {
		return short
	}
	return long
}

func TestMul32MatchesBigFloat(t *testing.T) {
	for _, a := range specials32 {
		for _, b := range specials32 {
			checkMul32(t, math.Float32frombits(a), math.Float32frombits(b))
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := samples(20_000, 300_000); i > 0 && !t.Failed(); i-- {
		checkMul32(t, randF32(r), randF32(r))
	}
}

// TestMul32NonFinite pins NaN payload and sign propagation for non-finite
// pairings, including two NaNs and signaling payloads.
func TestMul32NonFinite(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 10_000; i++ {
		a, b := randF32(r), math.Float32frombits(r.Uint32()|0x7f800000)
		if r.Intn(2) == 0 {
			a, b = b, a
		}
		checkMul32(t, a, b)
	}
}

// TestFMA32DoubleRoundingRegression is the case that exposed the double
// rounding of float32(math.FMA(...)): the float64 sum rounds onto a float32
// midpoint that the exact sum lies just below.
func TestFMA32DoubleRoundingRegression(t *testing.T) {
	a, b, c := math.Float32frombits(0x712ab1c0), math.Float32frombits(0x3ad20000), math.Float32frombits(0x8069b164)
	if got := math.Float32bits(fma32(a, b, c)); got != 0x6c8c05cf {
		t.Fatalf("fma32 = %#08x, want 0x6c8c05cf", got)
	}
	checkFMA32(t, a, b, c)
}

func TestFMA32MatchesBigFloat(t *testing.T) {
	for _, a := range specials32 {
		for _, b := range specials32 {
			for _, c := range []uint32{0, 0x80000000, 0x00000001, 0x80000001, 0x00800000, 0x3f800000, 0x7f7fffff, 0xff800000, 0x7fc12345} {
				checkFMA32(t, math.Float32frombits(a), math.Float32frombits(b), math.Float32frombits(c))
			}
		}
	}
	r := rand.New(rand.NewSource(3))
	for i := samples(20_000, 300_000); i > 0 && !t.Failed(); i-- {
		checkFMA32(t, randF32(r), randF32(r), randF32(r))
	}
}

// TestFMA32MidpointProducts aims at double rounding directly: a*b is built
// to be exactly a float32 rounding midpoint (a 25-bit odd product), scaled
// across the normal and subnormal ranges, and c nudges the exact sum just
// off it — the case where a float64 intermediate rounds back onto the
// midpoint and a second rounding picks the wrong neighbour.
func TestFMA32MidpointProducts(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	tiny := []float32{
		math.Float32frombits(0x00000001), math.Float32frombits(0x80000001),
		math.Float32frombits(0x00000003), math.Float32frombits(0x80400000),
	}
	for n := samples(20_000, 200_000); n > 0 && !t.Failed(); {
		u, v := uint64(r.Intn(1<<12))|1<<12|1, uint64(r.Intn(1<<12))|1<<12|1
		if u*v >= 1<<25 {
			continue // 26-bit products are quarter points, not midpoints
		}
		n--
		ea, eb := r.Intn(200)-100, r.Intn(200)-124
		a := float32(math.Ldexp(float64(u), ea))
		b := float32(math.Ldexp(float64(v), eb))
		if r.Intn(2) == 0 {
			a = -a
		}
		checkFMA32(t, a, b, tiny[r.Intn(len(tiny))])
		checkFMA32(t, a, b, 0)
		checkFMA32(t, a, b, randF32(r))
	}
}

// TestFMA32SubnormalMidpoints covers double rounding in the float32
// subnormal range, where the rounding grid is a fixed 2^-149 and a midpoint
// has no fixed low-bit pattern in float64. a*b = 2^-150·(1-2^-2j) sits just
// below half a subnormal step; a subnormal c with high bits set makes the
// float64 sum round up onto the midpoint c + 2^-150.
func TestFMA32SubnormalMidpoints(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for j := 12; j <= 23; j++ {
		a := float32(math.Ldexp(1+math.Ldexp(1, -j), -75))
		b := float32(math.Ldexp(1-math.Ldexp(1, -j), -75))
		for i := samples(200, 2_000); i > 0; i-- {
			c := math.Float32frombits(uint32(r.Intn(1<<23)) | 1<<22)
			if r.Intn(2) == 0 {
				a, c = -a, -c
			}
			checkFMA32(t, a, b, c)
			checkFMA32(t, b, a, c)
		}
	}
}
