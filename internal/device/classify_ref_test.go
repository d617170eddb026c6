package device

import (
	"math/rand"
	"testing"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// The detector's value classification is checked against a transcription of
// GPU-FPX's NVBit device checks (_FPC_FP32_IS_INF, _FPC_FP32_IS_NAN,
// _FPC_FP32_IS_SUBNORMAL and the division-by-zero rule _FPC_FP32_IS_0):
// shift the exponent and mantissa fields out of the raw bits and compare
// them with the all-ones and zero patterns. The FP64 checks are the same
// with an 11-bit exponent and a 52-bit mantissa. Nothing here shares code
// with fpval.

func fpcFP32IsInf(v uint32) bool {
	exponent, mantissa := v<<1>>24, v<<9>>9
	return exponent == 255 && mantissa == 0
}

func fpcFP32IsNaN(v uint32) bool {
	exponent, mantissa := v<<1>>24, v<<9>>9
	return exponent == 255 && mantissa != 0
}

func fpcFP32IsSubnormal(v uint32) bool {
	exponent, mantissa := v<<1>>24, v<<9>>9
	return exponent == 0 && mantissa != 0
}

// fpcFP32Is0 is the reciprocal-site rule: a NaN or INF result of a
// reciprocal is a division by zero.
func fpcFP32Is0(v uint32) bool { return fpcFP32IsInf(v) || fpcFP32IsNaN(v) }

func fpcFP64IsInf(v uint64) bool {
	exponent, mantissa := v<<1>>53, v<<12>>12
	return exponent == 2047 && mantissa == 0
}

func fpcFP64IsNaN(v uint64) bool {
	exponent, mantissa := v<<1>>53, v<<12>>12
	return exponent == 2047 && mantissa != 0
}

func fpcFP64IsSubnormal(v uint64) bool {
	exponent, mantissa := v<<1>>53, v<<12>>12
	return exponent == 0 && mantissa != 0
}

func fpcFP64Is0(v uint64) bool { return fpcFP64IsInf(v) || fpcFP64IsNaN(v) }

// refCheck is the reference's exception for one value: the first check of
// INF, NaN, subnormal that fires, or — at a reciprocal site — DIV0 for a
// NaN or INF.
func refCheck(inf, nan, sub, is0, div0 bool) fpval.Except {
	switch {
	case div0 && is0:
		return fpval.ExcDiv0
	case inf:
		return fpval.ExcInf
	case nan:
		return fpval.ExcNaN
	case sub:
		return fpval.ExcSub
	}
	return fpval.ExcNone
}

// classPatterns32 crosses both signs with every exponent edge (zero, the
// smallest and largest normal, the bias, all ones) and every mantissa edge
// (zero, one ulp, the quiet bit and its neighbours, all ones), then adds a
// seeded random sample.
func classPatterns32() []uint32 {
	var out []uint32
	for _, sign := range []uint32{0, 1} {
		for _, exp := range []uint32{0, 1, 0x7f, 0xfe, 0xff} {
			for _, man := range []uint32{0, 1, 0x3fffff, 0x400000, 0x400001, 0x7fffff} {
				out = append(out, sign<<31|exp<<23|man)
			}
		}
	}
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 1<<16; i++ {
		out = append(out, r.Uint32())
	}
	return out
}

// classPatterns64 is classPatterns32 for binary64.
func classPatterns64() []uint64 {
	var out []uint64
	for _, sign := range []uint64{0, 1} {
		for _, exp := range []uint64{0, 1, 0x3ff, 0x7fe, 0x7ff} {
			for _, man := range []uint64{0, 1, 1<<51 - 1, 1 << 51, 1<<51 | 1, 1<<52 - 1} {
				out = append(out, sign<<63|exp<<52|man)
			}
		}
	}
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 1<<16; i++ {
		out = append(out, r.Uint64())
	}
	return out
}

func TestClassifyMatchesNVBitChecks32(t *testing.T) {
	for _, v := range classPatterns32() {
		inf, nan, sub, is0 := fpcFP32IsInf(v), fpcFP32IsNaN(v), fpcFP32IsSubnormal(v), fpcFP32Is0(v)
		c := fpval.Classify32(v)
		if (c == fpval.Inf) != inf || (c == fpval.NaN) != nan || (c == fpval.Subnormal) != sub {
			t.Fatalf("Classify32(%#08x) = %v; reference inf=%v nan=%v sub=%v", v, c, inf, nan, sub)
		}
		for _, div0 := range []bool{false, true} {
			if got, want := fpval.CheckExce(fpval.FP32, uint64(v), div0), refCheck(inf, nan, sub, is0, div0); got != want {
				t.Fatalf("CheckExce(FP32, %#08x, div0=%v) = %v, reference %v", v, div0, got, want)
			}
		}
	}
}

func TestClassifyMatchesNVBitChecks64(t *testing.T) {
	for _, v := range classPatterns64() {
		inf, nan, sub, is0 := fpcFP64IsInf(v), fpcFP64IsNaN(v), fpcFP64IsSubnormal(v), fpcFP64Is0(v)
		c := fpval.Classify64(v)
		if (c == fpval.Inf) != inf || (c == fpval.NaN) != nan || (c == fpval.Subnormal) != sub {
			t.Fatalf("Classify64(%#016x) = %v; reference inf=%v nan=%v sub=%v", v, c, inf, nan, sub)
		}
		for _, div0 := range []bool{false, true} {
			if got, want := fpval.CheckExce(fpval.FP64, v, div0), refCheck(inf, nan, sub, is0, div0); got != want {
				t.Fatalf("CheckExce(FP64, %#016x, div0=%v) = %v, reference %v", v, div0, got, want)
			}
		}
	}
}

// classMasks are the exec masks the lane-mask checks run under: every lane,
// alternating lanes, and a single high lane.
var classMasks = []uint32{fullExec, 0x5555aaaa, 1 << 31}

// TestExcMasksMatchNVBitChecks loads the patterns 32 lanes at a time into
// one register (or register pair) of a warp and checks the detector's
// injected-body masks lane by lane against the reference.
func TestExcMasksMatchNVBitChecks(t *testing.T) {
	const reg = 2
	ctx := NewToolCtx(reg + 2)
	w := ctx.Warp
	for _, exec := range classMasks {
		ctx.ExecMask = exec
		p32 := classPatterns32()
		for base := 0; base < len(p32); base += WarpSize {
			var want [3]uint32 // nan, inf, sub
			for l := 0; l < WarpSize; l++ {
				v := p32[(base+l)%len(p32)]
				w.regs[l][reg] = v
				if exec&(1<<l) == 0 {
					continue
				}
				for i, hit := range []bool{fpcFP32IsNaN(v), fpcFP32IsInf(v), fpcFP32IsSubnormal(v)} {
					if hit {
						want[i] |= 1 << l
					}
				}
			}
			nan, inf, sub := ctx.ExcMasks32(reg)
			if got := [3]uint32{nan, inf, sub}; got != want {
				t.Fatalf("exec %#x, patterns from %d: ExcMasks32 = %#x, reference %#x", exec, base, got, want)
			}
		}
		p64 := classPatterns64()
		for base := 0; base < len(p64); base += WarpSize {
			var want [3]uint32
			for l := 0; l < WarpSize; l++ {
				v := p64[(base+l)%len(p64)]
				w.regs[l][reg], w.regs[l][reg+1] = uint32(v), uint32(v>>32)
				if exec&(1<<l) == 0 {
					continue
				}
				for i, hit := range []bool{fpcFP64IsNaN(v), fpcFP64IsInf(v), fpcFP64IsSubnormal(v)} {
					if hit {
						want[i] |= 1 << l
					}
				}
			}
			nan, inf, sub := ctx.ExcMasks64(reg)
			if got := [3]uint32{nan, inf, sub}; got != want {
				t.Fatalf("exec %#x, patterns from %d: ExcMasks64 = %#x, reference %#x", exec, base, got, want)
			}
		}
	}
	// RZ reads as zero in every lane: no exceptions, whatever the warp holds.
	ctx.ExecMask = fullExec
	for _, f := range []func(int) (uint32, uint32, uint32){ctx.ExcMasks32, ctx.ExcMasks64} {
		if nan, inf, sub := f(sass.RZ); nan|inf|sub != 0 {
			t.Fatalf("RZ masks = %#x %#x %#x, want none", nan, inf, sub)
		}
	}
}
