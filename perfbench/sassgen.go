package main

// A seeded SASS listing generator for check-sass-unique. Every listing is a
// kernel nobody has submitted before: straight-line FP32/FP64 arithmetic,
// MUFU, predication and a bounded counted loop — the grammar the FuzzRun
// seeds span — over exception-rich bit patterns (NaN payloads, ±0,
// subnormals, ±INF, values at the overflow edge). One instruction is
// planted: its operands are set right before it from registers nothing else
// touches, so it raises a known exception at a known PC whatever the noise
// around it computes.

import (
	"fmt"
	"strings"
)

// splitmix64 is the generator's stream: tiny, seedable, and independent of
// anything in the program under test.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a draw in [0, n).
func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// listing is one generated request: the SASS text, its launch geometry and
// the planted exception the detector must report.
type listing struct {
	Name        string
	Text        string
	Grid, Block int
	// PlantPC is the planted instruction's index in the kernel and
	// PlantExc the exception the detector names for it.
	PlantPC  int
	PlantExc string
}

// fp32Pattern draws an exception-rich FP32 bit pattern.
func fp32Pattern(r *splitmix64) uint32 {
	sign := uint32(r.intn(2)) << 31
	switch r.intn(8) {
	case 0: // quiet NaN with payload
		return sign | 0x7fc00000 | uint32(r.intn(1<<22))
	case 1: // signaling NaN (non-zero payload, quiet bit clear)
		return sign | 0x7f800000 | uint32(1+r.intn(1<<22-1))
	case 2: // ±0
		return sign
	case 3: // subnormal
		return sign | uint32(1+r.intn(1<<23-1))
	case 4: // ±INF
		return sign | 0x7f800000
	case 5: // near the overflow edge
		return sign | 0x7f000000 | uint32(r.intn(1<<23))
	case 6: // smallest normals
		return sign | 0x00800000 | uint32(r.intn(1<<16))
	default: // ordinary magnitudes around 1
		return sign | 0x3f000000 | uint32(r.intn(1<<24))
	}
}

// fp64Hi draws the high word of an exception-rich FP64 pattern (the low
// word is free payload).
func fp64Hi(r *splitmix64) uint32 {
	sign := uint32(r.intn(2)) << 31
	switch r.intn(6) {
	case 0:
		return sign | 0x7ff80000 | uint32(r.intn(1<<19))
	case 1:
		return sign
	case 2:
		return sign | 0x7ff00000
	case 3:
		return sign | uint32(r.intn(1<<20))
	case 4:
		return sign | 0x7fe00000 | uint32(r.intn(1<<20))
	default:
		return sign | 0x3fe00000 | uint32(r.intn(1<<21))
	}
}

// Register plan: R2–R9 hold FP32 noise, R16:R17 and R18:R19 FP64 noise
// pairs, R1 the loop counter, P0/P1 predicates. The planted instruction
// reads R20/R21 and writes R22, which the noise never touches.
const (
	noiseLo, noiseHi = 2, 9
	plantA, plantB   = 20, 21
	plantDst         = 22
	longEvery        = 16
)

// genListing builds listing number n of the stream seeded by seed.
func genListing(seed uint64, n int) listing {
	r := splitmix64(seed ^ uint64(n)*0xD1B54A32D192ED03)
	var (
		b  strings.Builder
		pc int
	)
	emit := func(format string, args ...any) {
		fmt.Fprintf(&b, format+" ;\n", args...)
		pc++
	}
	reg := func() int { return noiseLo + r.intn(noiseHi-noiseLo+1) }

	for rg := noiseLo; rg <= noiseHi; rg++ {
		emit("MOV32I R%d, 0x%08x", rg, fp32Pattern(&r))
	}
	for _, pair := range []int{16, 18} {
		emit("MOV32I R%d, 0x%08x", pair, uint32(r.next()))
		emit("MOV32I R%d, 0x%08x", pair+1, fp64Hi(&r))
	}

	noise := func(count int) {
		for i := 0; i < count; i++ {
			switch r.intn(9) {
			case 0:
				emit("FADD R%d, R%d, R%d", reg(), reg(), reg())
			case 1:
				emit("FMUL R%d, R%d, R%d", reg(), reg(), reg())
			case 2:
				emit("FFMA R%d, R%d, R%d, R%d", reg(), reg(), reg(), reg())
			case 3:
				fn := [...]string{"RCP", "RSQ", "SQRT", "EX2", "LG2"}[r.intn(5)]
				emit("MUFU.%s R%d, R%d", fn, reg(), reg())
			case 4:
				emit("DADD R16, R16, R18")
			case 5:
				emit("DMUL R18, R16, R18")
			case 6:
				cmp := [...]string{"GT", "LT", "GE", "NE"}[r.intn(4)]
				emit("FSETP.%s.AND P1, PT, R%d, R%d, PT", cmp, reg(), reg())
				emit("@P1 FADD R%d, R%d, R%d", reg(), reg(), reg())
			case 7:
				emit("FMNMX R%d, R%d, R%d, PT", reg(), reg(), reg())
			default:
				emit("MOV32I R%d, 0x%08x", reg(), fp32Pattern(&r))
			}
		}
	}

	noise(2 + r.intn(5))
	// A bounded counted loop around a little FP work: most of the
	// request's execution. One listing in longEvery loops four times as
	// long, so the latency tail is set by those listings rather than by
	// GC and scheduler hiccups.
	trips := 48 + r.intn(49)
	if r.intn(longEvery) == 0 {
		trips *= 4
	}
	emit("MOV32I R1, 0x0")
	b.WriteString("L_loop:\n")
	noise(2 + r.intn(3))
	emit("IADD R1, R1, 0x1")
	emit("ISETP.LT.AND P0, PT, R1, 0x%x, PT", trips)
	emit("@P0 BRA L_loop")
	noise(1 + r.intn(4))

	l := listing{
		Name:  fmt.Sprintf("gen-%x-%d.sass", seed, n),
		Grid:  2 + r.intn(3),
		Block: 128,
	}
	switch r.intn(4) {
	case 0: // reciprocal of ±0
		emit("MOV32I R%d, 0x%08x", plantA, uint32(r.intn(2))<<31)
		l.PlantPC, l.PlantExc = pc, "DIV0"
		emit("MUFU.RCP R%d, R%d", plantDst, plantA)
	case 1: // NaN payload propagates through an add
		emit("MOV32I R%d, 0x%08x", plantA, 0x7fc00000|uint32(r.intn(1<<22)))
		emit("MOV32I R%d, 0x%08x", plantB, 0x3f800000|uint32(r.intn(1<<23)))
		l.PlantPC, l.PlantExc = pc, "NaN"
		emit("FADD R%d, R%d, R%d", plantDst, plantA, plantB)
	case 2: // overflow to INF
		emit("MOV32I R%d, 0x%08x", plantA, 0x7f400000|uint32(r.intn(1<<22)))
		emit("MOV32I R%d, 0x%08x", plantB, 0x7f400000|uint32(r.intn(1<<22)))
		l.PlantPC, l.PlantExc = pc, "INF"
		emit("FMUL R%d, R%d, R%d", plantDst, plantA, plantB)
	default: // underflow to a subnormal
		emit("MOV32I R%d, 0x%08x", plantA, 0x00800000|uint32(r.intn(1<<16)))
		emit("MOV32I R%d, 0x3f000000", plantB)
		l.PlantPC, l.PlantExc = pc, "SUB"
		emit("FMUL R%d, R%d, R%d", plantDst, plantA, plantB)
	}
	noise(1 + r.intn(3))
	emit("EXIT")
	l.Text = b.String()
	return l
}
