package device

import (
	"math"
	"strconv"
	"strings"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// When says whether an injected call runs before or after its instruction,
// mirroring NVBit's IPOINT_BEFORE / IPOINT_AFTER.
type When uint8

const (
	Before When = iota
	After
)

// InjectedCall is one function call inserted at an instruction by a
// binary-instrumentation tool. Cost is charged to the device timeline per
// dynamic execution (per warp), modelling the register save/restore and call
// overhead of real injected SASS plus the body's work.
type InjectedCall struct {
	When When
	Cost uint64
	Fn   InjectFn
}

// InjectFn is the body of an injected call. Returning an error aborts the
// launch (ErrHang propagates this way).
type InjectFn func(ctx *InjCtx) error

// InjCtx is the view an injected call has of the executing warp, equivalent
// to what NVBit passes into instrumentation functions plus the variadic
// arguments a tool registered.
//
// Lifetime: the context (and the *Warp it points to) is only valid for the
// duration of the call. The executor reuses one context across calls and
// reuses warps across blocks, so a tool must not retain either pointer
// beyond its InjectFn invocation; copy out any state it needs to keep.
type InjCtx struct {
	Dev  *Device
	Warp *Warp
	// Instr is the instruction the call is attached to.
	Instr *sass.Instr
	// ExecMask is the set of lanes actually executing the instruction
	// (active lanes that pass the guard predicate).
	ExecMask uint32
}

// LaneActive reports whether the given lane executes the instruction.
func (c *InjCtx) LaneActive(lane int) bool {
	return c.ExecMask&(1<<uint(lane)) != 0
}

// LeaderLane returns the lowest executing lane.
func (c *InjCtx) LeaderLane() int {
	if c.ExecMask == 0 {
		return -1
	}
	for l := 0; l < WarpSize; l++ {
		if c.ExecMask&(1<<uint(l)) != 0 {
			return l
		}
	}
	return -1
}

// Reg32 reads a 32-bit register of a lane.
func (c *InjCtx) Reg32(lane, reg int) uint32 { return c.Warp.Reg(lane, reg) }

// Reg64 reads the FP64 register pair (reg, reg+1) of a lane.
func (c *InjCtx) Reg64(lane, reg int) uint64 {
	if reg == sass.RZ {
		return 0
	}
	return fpval.Pair64(c.Warp.Reg(lane, reg), c.Warp.Reg(lane, reg+1))
}

// genericBits converts a GENERIC textual constant to bits in format f by the
// substring rules of Listing 2 (contains "NAN" → NaN, "INF" → INF).
func genericBits(s string, f fpval.Format) uint64 {
	up := strings.ToUpper(s)
	neg := strings.HasPrefix(up, "-")
	switch {
	case strings.Contains(up, "NAN"):
		switch f {
		case fpval.FP64:
			if neg {
				return fpval.NegQNaN64
			}
			return fpval.QNaN64
		case fpval.FP16:
			return uint64(fpval.QNaN16)
		default:
			if neg {
				return uint64(fpval.NegQNaN32)
			}
			return uint64(fpval.QNaN32)
		}
	case strings.Contains(up, "INF"):
		switch f {
		case fpval.FP64:
			if neg {
				return fpval.NegInf64
			}
			return fpval.Inf64
		case fpval.FP16:
			if neg {
				return uint64(fpval.NegInf16)
			}
			return uint64(fpval.Inf16)
		default:
			if neg {
				return uint64(fpval.NegInf32)
			}
			return uint64(fpval.Inf32)
		}
	default:
		v, _ := parseGenericNumber(up)
		switch f {
		case fpval.FP64:
			return math.Float64bits(v)
		case fpval.FP16:
			return uint64(fpval.F16FromFloat32(float32(v)))
		default:
			return uint64(math.Float32bits(float32(v)))
		}
	}
}

func parseGenericNumber(s string) (float64, bool) {
	v, err := strconv.ParseFloat(strings.TrimPrefix(s, "+"), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
