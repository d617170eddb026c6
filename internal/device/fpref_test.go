package device

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"gpufpx/internal/fpval"
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

// refMulNaN32 is the FP32 product reference for any operands.
func refMulNaN32(a, b float32) float32 {
	if finite32(a) && finite32(b) {
		return refMul32(a, b)
	}
	return refNaNMul32(a, b)
}

func checkMul32(t *testing.T, a, b float32) {
	t.Helper()
	got, want := mul32(a, b), refMulNaN32(a, b)
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

// refNaN32 is the NaN rule of add32 and mul32 written out: a NaN operand
// propagates quieted, a's payload first. ok is false when neither operand
// is NaN.
func refNaN32(a, b float32) (r float32, ok bool) {
	switch {
	case a != a:
		return math.Float32frombits(math.Float32bits(a) | 0x00400000), true
	case b != b:
		return math.Float32frombits(math.Float32bits(b) | 0x00400000), true
	}
	return 0, false
}

// refAdd32 is the FP32 sum reference: the exact sum rounded once, or the
// NaN rule.
func refAdd32(a, b float32) float32 {
	want, nan := refNaN32(a, b)
	switch {
	case nan:
	case finite32(a) && finite32(b):
		want, _ = new(big.Float).SetPrec(bigExactPrec).Add(bigOf(a), bigOf(b)).Float32()
	default:
		// INF plus a finite value or an INF has no payload to choose.
		want = a + b
	}
	return want
}

func checkAdd32(t *testing.T, a, b float32) {
	t.Helper()
	got, want := add32(a, b), refAdd32(a, b)
	if math.Float32bits(got) != math.Float32bits(want) {
		t.Errorf("add32(%#08x, %#08x) = %#08x, want %#08x",
			math.Float32bits(a), math.Float32bits(b), math.Float32bits(got), math.Float32bits(want))
	}
}

// TestAdd32MatchesBigFloat checks add32 against the exact sum rounded once,
// and two-NaN sums against the payload rule.
func TestAdd32MatchesBigFloat(t *testing.T) {
	for _, a := range specials32 {
		for _, b := range specials32 {
			checkAdd32(t, math.Float32frombits(a), math.Float32frombits(b))
		}
	}
	r := rand.New(rand.NewSource(6))
	for i := samples(20_000, 300_000); i > 0 && !t.Failed(); i-- {
		checkAdd32(t, randF32(r), randF32(r))
	}
}

// refRound rounds v to nearest even in a binary format with prec
// significand bits and normal exponents emin..emax, with gradual underflow
// (multiples of 2^(emin-prec+1) below 2^emin) and overflow to INF. It
// returns the rounded value exactly, as a float64.
func refRound(v float32, prec uint, emin, emax int) float64 {
	x := bigOf(v)
	if x.Sign() == 0 {
		return float64(v)
	}
	var r *big.Float
	if x.MantExp(nil) <= emin { // |v| < 2^emin: round v/quantum to an integer
		q := emin - int(prec) + 1
		y := new(big.Float).SetMantExp(x, -q)
		n, _ := y.Int(nil) // truncated toward zero
		frac := new(big.Float).Sub(y, new(big.Float).SetInt(n))
		frac.Abs(frac)
		c := frac.Cmp(big.NewFloat(0.5))
		if c > 0 || c == 0 && n.Bit(0) == 1 {
			n.Add(n, big.NewInt(int64(x.Sign())))
		}
		r = new(big.Float).SetMantExp(new(big.Float).SetInt(n), q)
	} else {
		r = new(big.Float).SetPrec(prec).SetMode(big.ToNearestEven).Set(x)
		if r.MantExp(nil) > emax+1 { // |r| >= 2^(emax+1)
			return math.Inf(x.Sign())
		}
	}
	f, _ := r.Float64()
	if f == 0 {
		return math.Copysign(0, float64(v))
	}
	return f
}

// decodeBinary is an independent decoder of a 16-bit binary format with
// the given exponent width: sign, biased exponent and fraction, scaled with
// math.Ldexp.
func decodeBinary(h uint16, expBits uint) float64 {
	fracBits := 15 - expBits
	bias := 1<<(expBits-1) - 1
	e := int(h>>fracBits) & (1<<expBits - 1)
	m := float64(h & (1<<fracBits - 1))
	var v float64
	switch e {
	case 1<<expBits - 1:
		if m != 0 {
			return math.NaN()
		}
		v = math.Inf(1)
	case 0:
		v = math.Ldexp(m, 1-bias-int(fracBits))
	default:
		v = math.Ldexp(m+math.Ldexp(1, int(fracBits)), e-bias-int(fracBits))
	}
	if h&0x8000 != 0 {
		v = -v
	}
	return v
}

// half16 describes one 16-bit format for the conversion oracle.
type half16 struct {
	name       string
	from       func(float32) uint16
	to         func(uint16) float32
	expBits    uint
	prec       uint
	emin, emax int
	quiet      uint16 // the quiet bit a converted NaN carries
}

var halfFormats = []half16{
	{"F16", fpval.F16FromFloat32, fpval.F16ToFloat32, 5, 11, -14, 15, 0x0200},
	{"BF16", fpval.BF16FromFloat32, fpval.BF16ToFloat32, 8, 8, -126, 127, 0x0040},
}

func checkHalf(t *testing.T, f *half16, v float32) {
	t.Helper()
	got := f.from(v)
	if v != v {
		// A NaN keeps its sign and top fraction bits, quieted.
		b := math.Float32bits(v)
		fracBits := 15 - f.expBits
		want := uint16(b>>16)&0x8000 | uint16(1<<f.expBits-1)<<fracBits |
			uint16(b>>(23-fracBits))&(1<<fracBits-1) | f.quiet
		if got != want {
			t.Errorf("%sFromFloat32(%#08x) = %#04x, want %#04x", f.name, b, got, want)
		}
		return
	}
	want := refRound(v, f.prec, f.emin, f.emax)
	if g := decodeBinary(got, f.expBits); math.Float64bits(g) != math.Float64bits(want) {
		t.Errorf("%sFromFloat32(%#08x) = %#04x (%g), want %g", f.name, math.Float32bits(v), got, g, want)
	}
}

// TestHalfConversionsMatchBigFloat checks fpval's FP16 and BF16 encoders:
// round to nearest even against math/big, including gradual underflow,
// overflow to INF and the midpoints between every pair of adjacent finite
// values (and one float32 step either side); the decoders are checked
// exhaustively against an independent Ldexp decode.
func TestHalfConversionsMatchBigFloat(t *testing.T) {
	for i := range halfFormats {
		f := &halfFormats[i]
		for h := 0; h < 1<<16; h++ {
			want := decodeBinary(uint16(h), f.expBits)
			got := float64(f.to(uint16(h)))
			if math.Float64bits(got) != math.Float64bits(want) && !(want != want && got != got) {
				t.Fatalf("%sToFloat32(%#04x) = %g, want %g", f.name, h, got, want)
			}
		}
		for _, b := range specials32 {
			checkHalf(t, f, math.Float32frombits(b))
		}
		inf := uint16(1<<f.expBits-1) << (15 - f.expBits)
		step := 1
		if testing.Short() {
			step = 7
		}
		for h := uint16(0); h < inf && !t.Failed(); h += uint16(step) {
			lo, hi := decodeBinary(h, f.expBits), decodeBinary(h+1, f.expBits)
			mid := float32((lo + hi) / 2) // exact: one bit past the format's precision
			for _, v := range []float32{mid, math.Nextafter32(mid, 0), math.Nextafter32(mid, float32(math.Inf(1)))} {
				checkHalf(t, f, v)
				checkHalf(t, f, -v)
			}
		}
		r := rand.New(rand.NewSource(7))
		for i := samples(20_000, 200_000); i > 0 && !t.Failed(); i-- {
			checkHalf(t, f, randF32(r))
		}
	}
}

// ulps32 is the distance between two float32 bit patterns in units in the
// last place, counting across zero.
func ulps32(a, b uint32) int64 {
	ord := func(u uint32) int64 {
		if u>>31 != 0 {
			return -int64(u &^ 0x80000000)
		}
		return int64(u)
	}
	d := ord(a) - ord(b)
	if d < 0 {
		d = -d
	}
	return d
}

// refMUFU is the SFU reference for the modes with a correctly rounded
// math/big counterpart: 1/x (Quo), sqrt(x) and 1/sqrt(x) (Sqrt), rounded
// once to float32 and flushed to zero when subnormal, as the SFU flushes
// its outputs. Special operands follow IEEE 754 division and square root.
func refMUFU(mode uint8, x float32) float32 {
	inf := float32(math.Inf(1))
	switch {
	case x != x:
		return x
	case mode == mufuRCP && x == 0:
		return float32(math.Copysign(math.Inf(1), float64(x)))
	case mode == mufuRCP && !finite32(x):
		return float32(math.Copysign(0, float64(x)))
	case mode != mufuRCP && x == 0:
		if mode == mufuSQRT {
			return x
		}
		return float32(math.Copysign(math.Inf(1), float64(x)))
	case mode != mufuRCP && x < 0:
		return float32(math.NaN())
	case mode != mufuRCP && x == inf:
		if mode == mufuSQRT {
			return inf
		}
		return 0
	}
	q := bigOf(x)
	if mode != mufuRCP {
		q.Sqrt(q)
	}
	if mode != mufuSQRT {
		q.Quo(new(big.Float).SetPrec(bigExactPrec).SetInt64(1), q)
	}
	f, _ := q.Float32()
	return fpval.FlushFloat32(f)
}

// TestMUFUWithinOneULP holds RCP, RSQ and SQRT within one ulp of the
// correctly rounded math/big result, and RCP64H's high word within one of
// the correctly rounded FP64 reciprocal's. TestMUFUTranscendentals covers
// SIN, COS, EX2 and LG2.
func TestMUFUWithinOneULP(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, mode := range []uint8{mufuRCP, mufuRSQ, mufuSQRT} {
		check := func(x float32) {
			got, want := mufuEval(mode, math.Float32bits(x)), math.Float32bits(refMUFU(mode, x))
			bad := ulps32(got, want) > 1
			if want := math.Float32frombits(want); want != want {
				bad = math.Float32frombits(got) == math.Float32frombits(got)
			}
			if bad {
				t.Errorf("MUFU mode %d of %#08x = %#08x, want %#08x within 1 ulp", mode, math.Float32bits(x), got, want)
			}
		}
		for _, b := range specials32 {
			check(math.Float32frombits(b))
		}
		for i := samples(20_000, 100_000); i > 0 && !t.Failed(); i-- {
			check(randF32(r))
		}
	}
	checkRCP64H := func(hi uint32) {
		x := math.Float64frombits(uint64(hi) << 32)
		var want float64
		switch {
		case x != x:
			want = x
		case x == 0:
			want = math.Copysign(math.Inf(1), x)
		case math.IsInf(x, 0):
			want = math.Copysign(0, x)
		default:
			one := new(big.Float).SetPrec(bigExactPrec).SetInt64(1)
			want, _ = one.Quo(one, big.NewFloat(x)).Float64()
		}
		got, wantHi := mufuEval(mufuRCP64H, hi), uint32(math.Float64bits(want)>>32)
		bad := ulps32(got, wantHi) > 1
		if want != want {
			bad = got&0x7ff00000 != 0x7ff00000 || got&0xfffff == 0
		}
		if bad {
			t.Errorf("MUFU.RCP64H of %#08x = %#08x, want %#08x within 1", hi, got, wantHi)
		}
	}
	for _, v := range specials64 {
		checkRCP64H(uint32(v >> 32))
	}
	for i := samples(20_000, 100_000); i > 0 && !t.Failed(); i-- {
		checkRCP64H(uint32(math.Float64bits(randF64(r)) >> 32))
	}
}

// bigSeriesPrec carries the transcendental series far past float32's 24
// bits, so neither their truncation nor their rounding can move a float32
// rounding of the result.
const bigSeriesPrec = 256

func bigN(v float64) *big.Float { return new(big.Float).SetPrec(bigSeriesPrec).SetFloat64(v) }

// bigSeries sums first + a_1 + a_2 + ..., where step turns a_(k-1) into
// a_k in place, until a term no longer moves the sum at bigSeriesPrec
// bits.
func bigSeries(first *big.Float, step func(k int, term *big.Float)) *big.Float {
	sum, term := bigN(0).Set(first), bigN(0).Set(first)
	for k := 1; term.Sign() != 0 && term.MantExp(nil) > sum.MantExp(nil)-bigSeriesPrec-2; k++ {
		step(k, term)
		sum.Add(sum, term)
	}
	return sum
}

// bigAtanh is Σ z^(2k+1)/(2k+1), for |z| well below 1.
func bigAtanh(z *big.Float) *big.Float {
	z2 := bigN(0).Mul(z, z)
	return bigSeries(z, func(k int, t *big.Float) {
		t.Mul(t, z2).Mul(t, bigN(float64(2*k-1))).Quo(t, bigN(float64(2*k+1)))
	})
}

// bigAtanInv is atan(1/n) = Σ (-1)^k / ((2k+1) n^(2k+1)).
func bigAtanInv(n float64) *big.Float {
	z := bigN(1)
	z.Quo(z, bigN(n))
	negZ2 := bigN(0).Mul(z, z)
	negZ2.Neg(negZ2)
	return bigSeries(z, func(k int, t *big.Float) {
		t.Mul(t, negZ2).Mul(t, bigN(float64(2*k-1))).Quo(t, bigN(float64(2*k+1)))
	})
}

// bigLn2 is 2·atanh(1/3); bigHalfPi is π/2 by Machin's formula,
// 8·atan(1/5) − 2·atan(1/239).
var (
	bigLn2    = bigN(0).Mul(bigN(2), bigAtanh(bigN(0).Quo(bigN(1), bigN(3))))
	bigHalfPi = bigN(0).Sub(bigN(0).Mul(bigN(8), bigAtanInv(5)), bigN(0).Mul(bigN(2), bigAtanInv(239)))
)

// bigSinCos is sin(r) (cos false) or cos(r) by Taylor series, for
// |r| ≤ π/4.
func bigSinCos(r *big.Float, cos bool) *big.Float {
	negR2 := bigN(0).Mul(r, r)
	negR2.Neg(negR2)
	first, off := r, 0
	if cos {
		first, off = bigN(1), 1
	}
	return bigSeries(first, func(k int, t *big.Float) {
		t.Mul(t, negR2).Quo(t, bigN(float64((2*k-off)*(2*k+1-off))))
	})
}

// refTransc is the SFU reference for SIN, COS, EX2 and LG2 on finite
// operands: sin and cos after exact range reduction by π/2, 2^x as
// 2^n·e^(f·ln2) with x = n + f, and log2(m·2^e) = e + 2·atanh((m−1)/(m+1))/ln2
// for m in [1, 2). Each is rounded once to float32 and flushed to zero when
// subnormal, as the SFU flushes its outputs.
func refTransc(mode uint8, x float32) float32 {
	xb := bigN(float64(x))
	var r *big.Float
	switch mode {
	case mufuSIN, mufuCOS:
		// k = round(x / (π/2)); x − k·π/2 lies within ±π/4, and sin x is
		// ±sin or ±cos of it by k mod 4.
		q := bigN(0).Quo(xb, bigHalfPi)
		q.Add(q, bigN(math.Copysign(0.5, float64(x))))
		k, _ := q.Int64()
		rem := bigN(0).Sub(xb, bigN(0).Mul(bigN(float64(k)), bigHalfPi))
		if mode == mufuCOS {
			k++ // cos x = sin(x + π/2)
		}
		quad := (k%4 + 4) % 4
		r = bigSinCos(rem, quad%2 == 1)
		if quad >= 2 {
			r.Neg(r)
		}
	case mufuEX2:
		n := math.Floor(float64(x))
		y := bigN(0).Sub(xb, bigN(n))
		y.Mul(y, bigLn2)
		r = bigSeries(bigN(1), func(k int, t *big.Float) { t.Mul(t, y).Quo(t, bigN(float64(k))) })
		r.SetMantExp(r, int(n))
	case mufuLG2:
		m := bigN(0)
		e := xb.MantExp(m) - 1
		m.Mul(m, bigN(2)) // x = m·2^e, m in [1, 2)
		z := bigN(0).Quo(bigN(0).Sub(m, bigN(1)), bigN(0).Add(m, bigN(1)))
		r = bigN(0).Mul(bigN(2), bigAtanh(z))
		r.Quo(r, bigLn2).Add(r, bigN(float64(e)))
	}
	f, _ := r.Float32()
	return fpval.FlushFloat32(f)
}

// transcSpecial is the IEEE 754 result of SIN, COS, EX2 or LG2 for a NaN,
// ±Inf, ±0 or negative-LG2 operand: a NaN propagates quieted with its
// payload, an invalid operation gives the default quiet NaN, and the rest
// are exact. ok is false for operands refTransc covers.
func transcSpecial(mode uint8, x float32) (bits uint32, ok bool) {
	const qnan = 0x7fc00000
	inf, one := math.Float32bits(float32(math.Inf(1))), math.Float32bits(1)
	xb := math.Float32bits(x)
	switch {
	case x != x:
		return xb | 0x00400000, true
	case mode == mufuSIN && x == 0:
		return xb, true
	case mode == mufuCOS && x == 0, mode == mufuEX2 && x == 0:
		return one, true
	case (mode == mufuSIN || mode == mufuCOS) && !finite32(x):
		return qnan, true
	case mode == mufuEX2 && !finite32(x):
		if x > 0 {
			return inf, true
		}
		return 0, true
	case mode == mufuLG2 && x == 0:
		return inf | 1<<31, true
	case mode == mufuLG2 && x < 0:
		return qnan, true
	case mode == mufuLG2 && !finite32(x):
		return inf, true
	}
	return 0, false
}

// TestMUFUTranscendentals holds SIN and COS on |x| ≤ 64, EX2 on
// [−126, 127] and LG2 on the positive normals and subnormals within one
// ulp of refTransc, and every mode's NaN, ±Inf, ±0 and negative-LG2
// results to IEEE 754's bit for bit.
func TestMUFUTranscendentals(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	type domain struct {
		mode uint8
		name string
		pick func() float32
	}
	// hardSinCos are float32s nearest multiples of π/2, where sin or cos
	// nearly cancels.
	var hardSinCos []float32
	for k := -40; k <= 40; k++ {
		v := float32(float64(k) * math.Pi / 2)
		hardSinCos = append(hardSinCos, v, math.Nextafter32(v, 100), math.Nextafter32(v, -100))
	}
	sinCos := func() float32 {
		switch r.Intn(3) {
		case 0:
			return hardSinCos[r.Intn(len(hardSinCos))]
		case 1:
			// Every exponent up to 2^5, tiny and subnormal ones included.
			return math.Float32frombits(r.Uint32()&0x80ffffff | uint32(r.Intn(0x85))<<23)
		}
		return float32(r.Float64()*128 - 64)
	}
	domains := []domain{
		{mufuSIN, "SIN", sinCos},
		{mufuCOS, "COS", sinCos},
		{mufuEX2, "EX2", func() float32 {
			if r.Intn(2) == 0 {
				return float32(r.Intn(254) - 126)
			}
			return float32(r.Float64()*253 - 126)
		}},
		{mufuLG2, "LG2", func() float32 {
			if r.Intn(4) == 0 {
				return math.Float32frombits(0x3f800000 + uint32(r.Intn(64)) - 32) // near 1
			}
			return math.Float32frombits(1 + r.Uint32()%0x7f7fffff)
		}},
	}
	for _, d := range domains {
		for _, b := range specials32 {
			x := math.Float32frombits(b)
			want, ok := transcSpecial(d.mode, x)
			if !ok {
				continue
			}
			if got := mufuEval(d.mode, b); got != want {
				t.Errorf("MUFU.%s of %#08x = %#08x, want %#08x", d.name, b, got, want)
			}
		}
		for i := samples(2_000, 20_000); i > 0 && !t.Failed(); i-- {
			x := d.pick()
			got, want := mufuEval(d.mode, math.Float32bits(x)), math.Float32bits(refTransc(d.mode, x))
			if ulps32(got, want) > 1 {
				t.Errorf("MUFU.%s of %#08x = %#08x, want %#08x within 1 ulp", d.name, math.Float32bits(x), got, want)
			}
		}
	}
}

// bigExactPrec64 holds any exact FP64 sum (2^1024 down to 2^-1074).
const bigExactPrec64 = 2200

func big64(v float64) *big.Float { return new(big.Float).SetPrec(bigExactPrec64).SetFloat64(v) }

func finite64(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// specials64 mirrors specials32 for FP64: signed zeros, subnormal and
// normal extremes, units, operands whose products land at the subnormal
// boundary and the overflow edge, and NaNs with payloads.
var specials64 = []uint64{
	0, 1 << 63, // ±0
	1, 1<<63 | 1, // ±min subnormal
	0x000fffffffffffff, 0x800fffffffffffff, // ±max subnormal
	0x0008000000000000,                     // subnormal
	0x0010000000000000, 0x8010000000000000, // ±min normal
	0x7fefffffffffffff, 0xffefffffffffffff, // ±max normal
	0x3ff0000000000000, 0xbff0000000000000, // ±1
	0x3ff0000000000001, 0x3fefffffffffffff, // 1 ± ulp
	0x1ff0000000000000, 0x1fefffffffffffff, // ~2^-512: products near 2^-1024 (subnormal)
	0x2000000000000000,                     // 2^-511
	0x5ff0000000000000, 0x5fefffffffffffff, // 2^512: products at the overflow edge
	0x7ff0000000000000, 0xfff0000000000000, // ±Inf
	0x7ff8000000000000, 0xfff8000000000000, // quiet NaNs
	0x7ff8000000012345, 0x7ff0000000012345, // NaN payloads, one signaling
	0x7ff8000100000000, // payload in the high word
}

func randF64(r *rand.Rand) float64 {
	switch r.Intn(4) {
	case 0:
		return math.Float64frombits(specials64[r.Intn(len(specials64))])
	case 1:
		// Small exponents, so products and sums reach the subnormal range.
		return math.Float64frombits(r.Uint64()&0x800fffffffffffff | uint64(r.Intn(0x240))<<52)
	default:
		return math.Float64frombits(r.Uint64())
	}
}

// refNaN64 is refNaN32 for FP64.
func refNaN64(a, b float64) (r float64, ok bool) {
	switch {
	case a != a:
		return math.Float64frombits(math.Float64bits(a) | 1<<51), true
	case b != b:
		return math.Float64frombits(math.Float64bits(b) | 1<<51), true
	}
	return 0, false
}

// ref64 is an FP64 reference: exact's result rounded once for finite
// operands, the NaN rule, or host for INF operands without a NaN.
func ref64(exact func(z, x, y *big.Float) *big.Float, host func(a, b float64) float64) func(a, b float64) float64 {
	return func(a, b float64) float64 {
		want, nan := refNaN64(a, b)
		switch {
		case nan:
		case finite64(a) && finite64(b):
			want, _ = exact(new(big.Float).SetPrec(bigExactPrec64), big64(a), big64(b)).Float64()
		default:
			want = host(a, b)
		}
		return want
	}
}

var (
	refAdd64 = ref64((*big.Float).Add, func(a, b float64) float64 { return a + b })
	refMul64 = ref64((*big.Float).Mul, func(a, b float64) float64 { return a * b })
)

// TestAdd64Mul64MatchBigFloat checks add64 and mul64 against the exact sum
// and product rounded once, and NaN operands against the payload rule.
func TestAdd64Mul64MatchBigFloat(t *testing.T) {
	check := func(a, b float64) {
		for _, c := range []struct {
			name      string
			got, want func(a, b float64) float64
		}{{"add64", add64, refAdd64}, {"mul64", mul64, refMul64}} {
			if g, w := c.got(a, b), c.want(a, b); math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s(%#016x, %#016x) = %#016x, want %#016x",
					c.name, math.Float64bits(a), math.Float64bits(b), math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
	for _, a := range specials64 {
		for _, b := range specials64 {
			check(math.Float64frombits(a), math.Float64frombits(b))
		}
	}
	r := rand.New(rand.NewSource(9))
	for i := samples(20_000, 200_000); i > 0 && !t.Failed(); i-- {
		check(randF64(r), randF64(r))
	}
}
