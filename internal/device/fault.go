package device

// Hardening and fault-injection seams of the device layer: typed runtime
// faults (so host layers can classify a device abort instead of matching
// panic strings), cancellation and validation sentinels, and packet
// interposition for the internal/fault channel plane. Bit flips need no
// seam of their own: the device plane strikes through injected calls, like
// any instrumentation tool.

import (
	"errors"
	"fmt"
)

// ErrCanceled is returned when a launch is stopped through Launch.Cancel —
// the device-level form of a context cancellation.
var ErrCanceled = errors.New("device: launch canceled")

// ErrUnsupported is returned at launch time for kernels the executor cannot
// run: unknown opcodes, missing operands, malformed register pairs. It is
// detected once per kernel (in the decode pass), not per dynamic
// instruction, and wrapped with the offending PC and instruction text.
var ErrUnsupported = errors.New("device: unsupported instruction")

// ErrBadGeometry is returned at launch time for a grid or block size the
// device cannot run: non-positive dimensions or more than 1024 threads per
// block.
var ErrBadGeometry = errors.New("device: bad launch geometry")

// FaultKind classifies a RuntimeFault.
type FaultKind uint8

const (
	// FaultOOM is global-memory exhaustion in Alloc.
	FaultOOM FaultKind = iota
	// FaultOOB is a global-memory access outside the configured space.
	FaultOOB
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultOOM:
		return "out_of_memory"
	case FaultOOB:
		return "out_of_bounds"
	default:
		return "unknown"
	}
}

// RuntimeFault is the typed panic value for device aborts that real GPUs
// surface as asynchronous errors (illegal address, allocation failure). The
// simulator keeps them as panics — they can strike anywhere in the launch
// interior — and the facade's recover barrier converts them into classified
// errors instead of letting them kill the host process.
type RuntimeFault struct {
	Kind FaultKind
	Msg  string
}

// Error makes a recovered RuntimeFault usable as an error value directly.
func (f *RuntimeFault) Error() string { return f.Msg }

// oomFault builds the Alloc-exhaustion fault.
func oomFault(addr, n, limit uint32) *RuntimeFault {
	return &RuntimeFault{
		Kind: FaultOOM,
		Msg:  fmt.Sprintf("device: out of global memory (%d + %d > %d)", addr, n, limit),
	}
}

// oobFault builds the bad-address fault.
func oobFault(addr, n uint32) *RuntimeFault {
	return &RuntimeFault{
		Kind: FaultOOB,
		Msg:  fmt.Sprintf("device: memory access out of bounds: %#x+%d", addr, n),
	}
}

// FilterPackets interposes fn between PushPacket and the registered
// OnPacket consumer: fn receives each pushed packet plus a deliver function
// and decides how many times (zero, once, twice, or with a substituted
// payload) the consumer sees it. Channel cost accounting happens before the
// filter, so dropped packets still congest the channel — the fault is in
// delivery, not production. Passing nil removes the filter.
func (d *Device) FilterPackets(fn func(p Packet, deliver func(Packet))) { d.filter = fn }

// HeapBytes returns the bytes of global memory allocated so far — the
// address range a memory-plane fault may strike.
func (d *Device) HeapBytes() uint32 { return d.heap }

// MemDigest returns an FNV-1a digest of the allocated global-memory heap —
// the program-output fingerprint vulnerability campaigns compare against a
// golden run to classify a trial as silent data corruption. Addresses the
// lazily-grown backing store has not materialized yet read as zero, exactly
// as Load32 would see them, so the digest is a function of architectural
// state alone, not of allocation growth history.
func (d *Device) MemDigest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	n := int(d.heap)
	backed := n
	if backed > len(d.mem) {
		backed = len(d.mem)
	}
	for _, b := range d.mem[:backed] {
		h = (h ^ uint64(b)) * prime64
	}
	for i := backed; i < n; i++ {
		h = (h ^ 0) * prime64
	}
	return h
}
