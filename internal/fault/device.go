package fault

// The device plane: transient single-bit flips in architectural state,
// modeled on the SDC literature's error patterns — a particle strike or
// marginal circuit corrupts the value an instruction just produced, either
// in its destination register or in global memory. Like every fault plane
// that strikes the device, the injector is a cuda.Interceptor: it attaches
// a zero-cost After call to every non-branch instruction, so every retired
// dynamic instruction is one fault opportunity; a countdown drawn from the
// per-run stream decides which opportunities strike, independent of wall
// clock and scheduling.

import (
	"math/bits"

	"gpufpx/internal/cuda"
	"gpufpx/internal/device"
	"gpufpx/internal/sass"
)

// observer attaches one cached table of zero-cost After calls per kernel to
// every launch — the device planes' form of an instrumentation tool. An
// observer registered after the tool runs its call last at a shared PC,
// charges no JIT cycles and no call cost, so a fault-free observer leaves
// the run's cycles exactly as they were.
type observer struct {
	tabs map[*sass.Kernel]*device.InjectTable
	// at selects the PCs that get a call; fn is the call body, with k
	// bound to the launched kernel.
	at func(k *sass.Kernel, in *sass.Instr) bool
	fn func(k *sass.Kernel, c *device.InjCtx)
}

func newObserver(at func(k *sass.Kernel, in *sass.Instr) bool, fn func(k *sass.Kernel, c *device.InjCtx)) observer {
	return observer{tabs: make(map[*sass.Kernel]*device.InjectTable), at: at, fn: fn}
}

// OnLaunch implements cuda.Interceptor.
func (o *observer) OnLaunch(ev *cuda.LaunchEvent) {
	k := ev.Kernel
	tab, ok := o.tabs[k]
	if !ok {
		call := device.InjectedCall{When: device.After, Fn: func(c *device.InjCtx) error {
			o.fn(k, c)
			return nil
		}}
		for i := range k.Instrs {
			if o.at(k, &k.Instrs[i]) {
				if tab == nil {
					tab = device.NewInjectTable(len(k.Instrs))
				}
				tab.Add(i, call)
			}
		}
		// A kernel without calls caches nil, which attaches nothing.
		o.tabs[k] = tab
	}
	ev.AttachTable(tab)
}

// OnExit implements cuda.Interceptor.
func (o *observer) OnExit() {}

// writesReg reports whether in writes a general-purpose destination
// register: the sites a register strike can hit.
func writesReg(in *sass.Instr) (int, bool) {
	dest, ok := in.DestReg()
	return dest, ok && dest != sass.RZ
}

// DeviceInjector flips bits in destination registers and global memory. It
// observes one context (register it with Context.Intercept after the tool)
// and must only be used by one launch goroutine at a time (the session
// model already guarantees this: one device, one run).
type DeviceInjector struct {
	observer
	parent    *Injector
	r         rng
	countdown uint64
	seq       uint64 // dynamic instructions observed
}

func newDeviceInjector(parent *Injector, seed uint64) *DeviceInjector {
	di := &DeviceInjector{parent: parent, r: rng{s: seed}}
	di.countdown = di.r.gap(parent.plan.Rate)
	// Branches retire no state a transient flip could corrupt; every other
	// instruction is an opportunity.
	di.observer = newObserver(
		func(_ *sass.Kernel, in *sass.Instr) bool { return in.Op != sass.OpBRA },
		di.strike)
	return di
}

// strike counts one retired instruction and flips a bit when the countdown
// expires.
func (di *DeviceInjector) strike(k *sass.Kernel, c *device.InjCtx) {
	di.seq++
	di.countdown--
	if di.countdown > 0 {
		return
	}
	di.countdown = di.r.gap(di.parent.plan.Rate)

	// Pick the strike target: the destination register when the instruction
	// wrote one (calls run only when some lane executed), global memory
	// otherwise (and as the 1-in-4 alternative even when a register is
	// available, mirroring the memory cell upsets of the SDC taxonomy).
	d, w, in, exec := c.Dev, c.Warp, c.Instr, c.ExecMask
	dest, hasDest := writesReg(in)
	memOK := d.HeapBytes() >= 4
	useMem := memOK && (!hasDest || di.r.intn(4) == 0)

	switch {
	case useMem:
		word := di.r.intn(uint64(d.HeapBytes() / 4))
		addr := uint32(word) * 4
		bit := int(di.r.intn(32))
		d.Store32(addr, d.Load32(addr)^uint32(1)<<uint(bit))
		injectedDevice.Add(1)
		di.parent.log(Event{
			Plane: "device", Kind: "memflip", Seq: di.seq,
			Kernel: k.Name, PC: in.PC, Addr: addr, Bit: bit,
		})
	case hasDest:
		lane := nthSetBit(exec, int(di.r.intn(uint64(bits.OnesCount32(exec)))))
		bit := int(di.r.intn(32))
		w.SetReg(lane, dest, w.Reg(lane, dest)^uint32(1)<<uint(bit))
		injectedDevice.Add(1)
		di.parent.log(Event{
			Plane: "device", Kind: "regflip", Seq: di.seq,
			Kernel: k.Name, PC: in.PC, Lane: lane, Reg: dest, Bit: bit,
		})
	default:
		// No architectural state to strike yet (no allocation, no register
		// write): the opportunity passes without an event.
	}
}

// nthSetBit returns the position of the n-th (0-based) set bit of mask.
func nthSetBit(mask uint32, n int) int {
	for ; n > 0; n-- {
		mask &= mask - 1
	}
	return bits.TrailingZeros32(mask)
}
