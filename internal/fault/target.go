package fault

// Campaign-mode device plane. Where DeviceInjector sprays rate-driven random
// flips, a vulnerability campaign (internal/campaign) needs two surgical
// instruments, both cuda.Interceptors that observe through zero-cost
// After calls (see observer):
//
//   - Census enumerates the strikeable instruction sites of a golden run —
//     every static (kernel, pc) that writes a general-purpose destination
//     register on a live lane — with their dynamic occurrence counts. The
//     census defines the campaign's site space.
//   - TargetedInjector strikes exactly once: one bit of one destination
//     register at one dynamic occurrence of one site. Everything else about
//     the run stays golden, so any downstream divergence is attributable to
//     that single flip.

import (
	"hash/fnv"
	"io"
	"math/bits"
	"strings"

	"gpufpx/internal/device"
	"gpufpx/internal/sass"
)

// Site is one static strikeable instruction site: a (kernel, pc) whose
// instruction writes a general-purpose destination register on at least one
// executed lane during the golden run.
type Site struct {
	// Kernel and PC locate the site.
	Kernel string `json:"kernel"`
	PC     int    `json:"pc"`
	// Reg is the destination register the site writes.
	Reg int `json:"reg"`
	// Asm is the SASS listing text of the instruction.
	Asm string `json:"asm"`
	// Dyn counts the site's strikeable dynamic occurrences in the golden
	// run — the occurrence space campaign trials sample from.
	Dyn uint64 `json:"dyn"`
}

type siteKey struct {
	kernel string
	pc     int
}

// Census collects the strikeable sites of one run, in first-retirement
// order (deterministic: a run's launches execute sequentially).
type Census struct {
	observer
	idx   map[siteKey]int
	sites []Site
}

// NewCensus returns an empty census ready to register with
// Context.Intercept.
func NewCensus() *Census {
	c := &Census{idx: make(map[siteKey]int)}
	c.observer = newObserver(func(_ *sass.Kernel, in *sass.Instr) bool {
		_, ok := writesReg(in)
		return ok
	}, c.retire)
	return c
}

// retire counts one strikeable retirement of a site.
func (c *Census) retire(k *sass.Kernel, ctx *device.InjCtx) {
	in := ctx.Instr
	dest, _ := writesReg(in)
	key := siteKey{kernel: k.Name, pc: in.PC}
	if i, ok := c.idx[key]; ok {
		c.sites[i].Dyn++
		return
	}
	c.idx[key] = len(c.sites)
	c.sites = append(c.sites, Site{
		Kernel: k.Name,
		PC:     in.PC,
		Reg:    dest,
		Asm:    strings.TrimSpace(in.String()),
		Dyn:    1,
	})
}

// Sites returns the census in first-retirement order.
func (c *Census) Sites() []Site {
	out := make([]Site, len(c.sites))
	copy(out, c.sites)
	return out
}

// Target selects one campaign strike: flip Bit of the destination register
// written by site (Kernel, PC) at its Occurrence-th strikeable retirement,
// on the executed lane chosen by LaneSel.
type Target struct {
	// Kernel and PC name the site (from a Census).
	Kernel string
	PC     int
	// Occurrence is the 1-based strikeable dynamic occurrence to strike.
	Occurrence uint64
	// LaneSel picks among the executed lanes (modulo their count), so any
	// selector value is valid for any live mask.
	LaneSel uint64
	// Bit is the bit position to flip, taken modulo 32.
	Bit int
}

// TargetedInjector performs one Target strike. Use a fresh injector per
// trial run.
type TargetedInjector struct {
	observer
	t      Target
	seen   uint64
	struck bool
	event  Event
}

// NewTargetedInjector returns the interceptor for one trial. Its only call
// sits at the target site, so every other instruction runs as in the golden
// run.
func NewTargetedInjector(t Target) *TargetedInjector {
	ti := &TargetedInjector{t: t}
	ti.observer = newObserver(func(k *sass.Kernel, in *sass.Instr) bool {
		_, ok := writesReg(in)
		return ok && in.PC == t.PC && k.Name == t.Kernel
	}, ti.strike)
	return ti
}

// strike counts one retirement of the target site and flips the bit at the
// chosen occurrence.
func (ti *TargetedInjector) strike(k *sass.Kernel, c *device.InjCtx) {
	if ti.struck {
		return
	}
	in, w, exec := c.Instr, c.Warp, c.ExecMask
	dest, _ := writesReg(in)
	ti.seen++
	if ti.seen != ti.t.Occurrence {
		return
	}
	lane := nthSetBit(exec, int(ti.t.LaneSel%uint64(bits.OnesCount32(exec))))
	bit := ti.t.Bit & 31
	w.SetReg(lane, dest, w.Reg(lane, dest)^uint32(1)<<uint(bit))
	injectedDevice.Add(1)
	ti.struck = true
	ti.event = Event{
		Plane: "device", Kind: "regflip", Seq: ti.seen,
		Kernel: k.Name, PC: in.PC, Lane: lane, Reg: dest, Bit: bit,
	}
}

// Struck reports whether the target was hit. A miss (the trial's occurrence
// never retired — control flow diverged from the golden run's census, or the
// occurrence exceeds the site's dynamic count) leaves the run golden.
func (ti *TargetedInjector) Struck() bool { return ti.struck }

// Event returns the strike's fault event; meaningful only when Struck.
func (ti *TargetedInjector) Event() Event { return ti.event }

// ---- campaign sub-seeding ----

// SubSeed derives an independent splitmix64 stream seed for one labeled
// sub-stream of a campaign seed — the PR 5 (seed, run key, plane) scheme
// with the plane slot generalized to a small stream index, so every
// campaign trial owns a reproducible stream of its own.
func SubSeed(seed uint64, key string, stream uint64) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	return seed ^ h.Sum64() ^ (0x9E3779B97F4A7C15 * stream)
}

// Stream is an exported splitmix64 stream over a SubSeed — the same
// generator the injection planes use, guaranteed stable across Go versions.
type Stream struct{ r rng }

// NewStream returns a stream seeded at s.
func NewStream(s uint64) *Stream { return &Stream{r: rng{s: s}} }

// Next returns the next 64-bit draw.
func (s *Stream) Next() uint64 { return s.r.next() }

// Intn returns a draw in [0, n); 0 when n is 0.
func (s *Stream) Intn(n uint64) uint64 { return s.r.intn(n) }
