// Package device implements the SIMT GPU simulator GPU-FPX runs against: a
// stand-in for the NVIDIA hardware of the paper's testbed. It executes SASS
// kernels warp-by-warp with 32 lanes, predication, a per-thread 32-bit
// register file with the FP64 register-pair convention, constant banks,
// global and shared memory, and special-function-unit (MUFU) semantics
// including flush-to-zero mode.
//
// Time is modelled in deterministic cycles: every instruction has a fixed
// cost, injected instrumentation calls charge their own cost, and the
// device→host communication channel has a finite capacity and drain rate so
// that tools that over-communicate (BinFPE) congest and — past a watchdog
// budget — hang, as observed in the paper.
package device

import (
	"encoding/binary"
	"errors"
)

// WarpSize is the number of lanes per warp.
const WarpSize = 32

// ErrHang is returned when a launch exceeds the watchdog stall budget
// because the device→host channel cannot drain fast enough. The paper
// reports BinFPE hanging on exactly this kind of congestion.
var ErrHang = errors.New("device: watchdog timeout: device stalled on device-to-host channel")

// ErrBudget is returned when a launch exceeds its dynamic-instruction
// budget — a runaway or malformed kernel, not a channel hang. Harness
// layers distinguish the two: a hang is an expected evaluation outcome
// (BinFPE hangs in the paper), a budget abort is a corpus bug that must
// fail loudly.
var ErrBudget = errors.New("device: dynamic instruction budget exceeded")

// Config sets the cost model. The zero value is unusable; use DefaultConfig.
type Config struct {
	// MemBytes is the size of global memory.
	MemBytes uint32

	// ChannelCapacity is the number of in-flight packet words the
	// device→host channel buffers before the producer stalls.
	ChannelCapacity uint64
	// ChannelCyclesPerWord is the host-side drain cost per packet word.
	ChannelCyclesPerWord uint64
	// HangBudget is the cumulative stall budget (cycles) after which a
	// launch is declared hung.
	HangBudget uint64
}

// DefaultConfig returns the cost model used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		MemBytes:             64 << 20,
		ChannelCapacity:      1 << 12,
		ChannelCyclesPerWord: 48,
		HangBudget:           3 << 30,
	}
}

// Packet is one message pushed from injected device code to the host.
// Words is the size the channel charges for; Payload is the decoded content
// delivered to the host consumer (tools run in-process, so no byte-level
// serialization is needed — the cost model uses Words).
type Packet struct {
	Words   int
	Payload any
}

// Device is one simulated GPU plus its host-visible channel.
type Device struct {
	cfg Config

	mem    []byte
	heap   uint32
	allocs []Allocation

	cbank0 []byte // constant bank 0: kernel params et al.

	// Cycles is the unified device+host timeline.
	Cycles uint64

	// channel state
	hostClock  uint64 // cycle at which the host finishes draining the backlog
	stallTotal uint64
	onPacket   func(Packet)
	// filter, when set, interposes packet delivery (see FilterPackets).
	filter func(Packet, func(Packet))

	// Stats accumulates per-device counters across launches.
	Stats Stats
}

// Stats counts simulator activity.
type Stats struct {
	Instructions   uint64 // dynamic instructions (per warp execution)
	LaneOps        uint64 // dynamic instructions × active lanes
	FPInstructions uint64
	PacketsPushed  uint64
	WordsPushed    uint64
	StallCycles    uint64
}

// New creates a device with the given configuration.
func New(cfg Config) *Device {
	if cfg.MemBytes == 0 {
		cfg = DefaultConfig()
	}
	// Global memory is grown lazily by checkAddr: most corpus programs
	// touch well under 1 MiB of the 64 MiB address space, and zeroing the
	// full space up front dominated the harness profile (each of the ~600
	// sweep runs creates a private device). Backings come from the process
	// slab pools (slab.go) and return there via Release.
	return &Device{
		cfg:    cfg,
		cbank0: newCbank(),
	}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// OnPacket registers the host-side channel consumer. Packets are delivered
// synchronously in push order (the in-process stand-in for the NVBit
// channel's host receiver thread).
func (d *Device) OnPacket(fn func(Packet)) { d.onPacket = fn }

// Allocation is one reserved global-memory region.
type Allocation struct {
	Addr, Size uint32
}

// Alloc reserves n bytes of global memory (16-byte aligned) and returns the
// device address. It panics with a typed *RuntimeFault when memory is
// exhausted — the facade's recover barrier classifies it as a resource
// error; bare harness callers still crash loudly.
func (d *Device) Alloc(n uint32) uint32 {
	addr := (d.heap + 15) &^ 15
	if uint64(addr)+uint64(n) > uint64(d.cfg.MemBytes) {
		panic(oomFault(addr, n, d.cfg.MemBytes))
	}
	d.heap = addr + n
	d.allocs = append(d.allocs, Allocation{Addr: addr, Size: n})
	return addr
}

// Allocations returns the regions reserved so far — what a memory-checking
// instrumentation tool validates addresses against.
func (d *Device) Allocations() []Allocation {
	out := make([]Allocation, len(d.allocs))
	copy(out, d.allocs)
	return out
}

// Reset clears the allocator, memory, timeline and channel state,
// keeping the configuration. Used between benchmark program runs.
func (d *Device) Reset() {
	for i := range d.mem {
		d.mem[i] = 0
	}
	for i := range d.cbank0 {
		d.cbank0[i] = 0
	}
	d.heap = 0
	d.allocs = nil
	d.Cycles = 0
	d.hostClock = 0
	d.stallTotal = 0
	d.Stats = Stats{}
}

// Load32 reads a 32-bit word from global memory.
func (d *Device) Load32(addr uint32) uint32 {
	d.checkAddr(addr, 4)
	return binary.LittleEndian.Uint32(d.mem[addr:])
}

// Store32 writes a 32-bit word to global memory.
func (d *Device) Store32(addr uint32, v uint32) {
	d.checkAddr(addr, 4)
	binary.LittleEndian.PutUint32(d.mem[addr:], v)
}

// Load64 reads a 64-bit word from global memory.
func (d *Device) Load64(addr uint32) uint64 {
	d.checkAddr(addr, 8)
	return binary.LittleEndian.Uint64(d.mem[addr:])
}

// Store64 writes a 64-bit word to global memory.
func (d *Device) Store64(addr uint32, v uint64) {
	d.checkAddr(addr, 8)
	binary.LittleEndian.PutUint64(d.mem[addr:], v)
}

func (d *Device) checkAddr(addr, n uint32) {
	end := uint64(addr) + uint64(n)
	if end <= uint64(len(d.mem)) {
		return
	}
	if end > uint64(d.cfg.MemBytes) {
		panic(oobFault(addr, n))
	}
	d.grow(end)
}

// grow extends the lazily allocated global-memory backing store to cover at
// least end bytes, doubling from a 1 MiB floor and capping at the configured
// memory size, so a program touching N bytes costs O(N) total allocation
// rather than the O(N²/chunk) of fixed-step growth. The new tail is zero,
// preserving the zeroed-memory semantics of the previous eager allocation.
func (d *Device) grow(end uint64) {
	const chunk = 1 << 20
	size := uint64(len(d.mem))
	if size < chunk {
		size = chunk
	}
	for size < end {
		size *= 2
	}
	if size > uint64(d.cfg.MemBytes) {
		size = uint64(d.cfg.MemBytes)
	}
	nm := newSlab(size)
	copy(nm, d.mem)
	putSlab(d.mem)
	d.mem = nm
}

// SetParam stores a 32-bit kernel parameter word at constant-bank-0 offset
// off (CUDA places launch parameters in c[0x0] starting at 0x160 on
// compute capability 7.x+).
func (d *Device) SetParam(off int, v uint32) {
	binary.LittleEndian.PutUint32(d.cbank0[off:], v)
}

// CBankRead reads a 32-bit word from a constant bank. Only bank 0 is
// populated in this simulator.
func (d *Device) CBankRead(bank, off int) uint32 {
	if bank != 0 || off < 0 || off+4 > len(d.cbank0) {
		return 0
	}
	return binary.LittleEndian.Uint32(d.cbank0[off:])
}

// ParamBase is the constant-bank-0 offset of the first kernel parameter.
const ParamBase = 0x160

// AdvanceHost adds host-side cycles (JIT compilation, report writing) to the
// unified timeline.
func (d *Device) AdvanceHost(cycles uint64) { d.Cycles += cycles }

// DelayDrain models extra host-side work per received packet (e.g. a tool
// formatting a report for every exception occurrence): the channel consumer
// falls behind, backlog grows, and the producer eventually stalls. This is
// how per-occurrence reporting turns into hours-long runs and hangs.
func (d *Device) DelayDrain(cycles uint64) { d.hostClock += cycles }

// ResetWatchdog clears the per-launch stall accounting; the kernel watchdog
// applies to single launches, as GPU watchdog timers do.
func (d *Device) ResetWatchdog() { d.stallTotal = 0 }

// PushPacket models injected device code pushing a packet into the
// device→host channel. The channel buffers ChannelCapacity words; when the
// backlog (in drain time) exceeds that, the device stalls until the host
// catches up. It returns ErrHang once cumulative stalling exceeds the
// watchdog budget.
func (d *Device) PushPacket(p Packet) error {
	words := uint64(p.Words)
	if words == 0 {
		words = 1
	}
	drainCost := words * d.cfg.ChannelCyclesPerWord
	if d.hostClock < d.Cycles {
		d.hostClock = d.Cycles
	}
	d.hostClock += drainCost

	// Backlog, expressed in drain time, beyond which the producer stalls.
	window := d.cfg.ChannelCapacity * d.cfg.ChannelCyclesPerWord
	if d.hostClock > d.Cycles+window {
		stall := d.hostClock - window - d.Cycles
		d.Cycles += stall
		d.stallTotal += stall
		d.Stats.StallCycles += stall
		if d.stallTotal > d.cfg.HangBudget {
			return ErrHang
		}
	}

	d.Stats.PacketsPushed++
	d.Stats.WordsPushed += words
	if d.onPacket != nil {
		if d.filter != nil {
			d.filter(p, d.onPacket)
		} else {
			d.onPacket(p)
		}
	}
	return nil
}
