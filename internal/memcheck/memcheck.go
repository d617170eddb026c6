// Package memcheck is a second binary-instrumentation tool built on the
// same nvbit framework as GPU-FPX: a global-memory bounds checker in the
// spirit of NVBit's canonical sample tools and cuda-memcheck. It exists to
// demonstrate that the instrumentation substrate of this repository is a
// general framework, exactly as the paper positions NVBit — GPU-FPX is one
// tool among many that the interception/injection machinery can host.
//
// The tool instruments every LDG/STG, validates the effective address per
// lane against the device's allocation map, and reports each faulting site
// once.
package memcheck

import (
	"fmt"
	"io"
	"sort"

	"gpufpx/internal/cuda"
	"gpufpx/internal/device"
	"gpufpx/internal/nvbit"
	"gpufpx/internal/sass"
)

// Fault is one out-of-bounds access site.
type Fault struct {
	Kernel string
	PC     int
	SASS   string
	// Write distinguishes stores from loads.
	Write bool
	// Addr is the first faulting effective address observed.
	Addr uint32
	// Size is the access width in bytes.
	Size uint32
	// Count is the number of faulting lane accesses at this site.
	Count uint64
}

// Config tunes the checker.
type Config struct {
	// CallCost is the device cycles per injected check per warp.
	CallCost uint64
	// Output receives the exit report; nil discards.
	Output io.Writer
}

// DefaultConfig returns a detector-like cost.
func DefaultConfig() Config { return Config{CallCost: 12} }

// Tool is the bounds checker.
type Tool struct {
	cfg Config
	dev *device.Device
	out io.Writer

	faults map[string]*Fault // keyed by kernel:pc
	order  []string
}

// Attach hooks the checker into a context.
func Attach(ctx *cuda.Context, cfg Config) *Tool {
	t := &Tool{cfg: cfg, dev: ctx.Dev, out: cfg.Output, faults: make(map[string]*Fault)}
	if t.out == nil {
		t.out = io.Discard
	}
	nvbit.Attach(ctx, t, nvbit.DefaultCosts())
	return t
}

// Name implements nvbit.Tool.
func (t *Tool) Name() string { return "memcheck" }

// ShouldInstrument instruments every launch.
func (t *Tool) ShouldInstrument(k *sass.Kernel, invocation int) bool { return true }

// Instrument inserts a before-call on every global access.
func (t *Tool) Instrument(k *sass.Kernel) map[int][]device.InjectedCall {
	inj := make(map[int][]device.InjectedCall)
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if in.Op != sass.OpLDG && in.Op != sass.OpSTG {
			continue
		}
		inj[in.PC] = append(inj[in.PC], device.InjectedCall{
			When: device.Before,
			Cost: t.cfg.CallCost,
			Fn:   t.checkFn(k.Name, in),
		})
	}
	return inj
}

func (t *Tool) checkFn(kernel string, in *sass.Instr) device.InjectFn {
	// The address operand: first operand for stores, second for loads.
	memOp := in.Operands[1]
	write := in.Op == sass.OpSTG
	if write {
		memOp = in.Operands[0]
	}
	size := uint32(4)
	if in.PairMask() != 0 { // a register pair moves (LDG/STG .64)
		size = 8
	}
	key := fmt.Sprintf("%s:%d", kernel, in.PC)
	return func(ctx *device.InjCtx) error {
		allocs := ctx.Dev.Allocations()
		for lane := 0; lane < device.WarpSize; lane++ {
			if !ctx.LaneActive(lane) {
				continue
			}
			addr := ctx.Reg32(lane, memOp.Reg) + uint32(memOp.IVal)
			if inBounds(allocs, addr, size) {
				continue
			}
			f := t.faults[key]
			if f == nil {
				f = &Fault{Kernel: kernel, PC: in.PC, SASS: in.String(), Write: write, Addr: addr, Size: size}
				t.faults[key] = f
				t.order = append(t.order, key)
			}
			f.Count++
		}
		return nil
	}
}

// inBounds reports whether [addr, addr+size) lies inside one allocation.
func inBounds(allocs []device.Allocation, addr, size uint32) bool {
	for _, a := range allocs {
		if addr >= a.Addr && addr+size <= a.Addr+a.Size {
			return true
		}
	}
	return false
}

// OnExit prints the fault report.
func (t *Tool) OnExit() {
	for _, key := range t.order {
		f := t.faults[key]
		kind := "read"
		if f.Write {
			kind = "write"
		}
		fmt.Fprintf(t.out, "#MEMCHECK: out-of-bounds %s of %d bytes at %#x in [%s]:%d  %s (x%d)\n",
			kind, f.Size, f.Addr, f.Kernel, f.PC, f.SASS, f.Count)
	}
	fmt.Fprintf(t.out, "#MEMCHECK summary: %d faulting sites\n", len(t.faults))
}

// Faults returns the detected sites in first-seen order.
func (t *Tool) Faults() []Fault {
	out := make([]Fault, 0, len(t.faults))
	for _, key := range t.order {
		out = append(out, *t.faults[key])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Kernel != out[j].Kernel {
			return out[i].Kernel < out[j].Kernel
		}
		return out[i].PC < out[j].PC
	})
	return out
}
