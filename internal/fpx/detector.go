package fpx

import (
	"fmt"
	"io"
	"math/bits"
	"sync"

	"gpufpx/internal/cuda"
	"gpufpx/internal/device"
	"gpufpx/internal/fpval"
	"gpufpx/internal/nvbit"
	"gpufpx/internal/sass"
)

// DetectorConfig configures the GPU-FPX detector.
type DetectorConfig struct {
	// Whitelist restricts instrumentation to the named kernels
	// (Algorithm 3's user_specified_kernels); empty instruments all.
	Whitelist []string
	// FreqRednFactor is k in Algorithm 3: each kernel is instrumented on
	// one in k of its invocations. 0 or 1 instruments every invocation.
	FreqRednFactor int
	// UseGT enables the global deduplication table (§3.1.2). Disabling it
	// reproduces the paper's "w/o GT" evolution phase for Figure 4: every
	// warp-level exception occurrence is shipped to the host.
	UseGT bool
	// Verbose streams each new exception record to Output as it arrives
	// (the early-notification behaviour); the final report is always
	// available from Report.
	Verbose bool
	// Output receives verbose records and the exit report. nil discards.
	Output io.Writer
	// OnRecord, when set, observes each deduplicated record the moment the
	// host channel delivers it — the streaming-results hook. Channel
	// delivery is synchronous with kernel execution, so the callback runs
	// on the launching goroutine, in report order.
	OnRecord func(Record)

	// CheckCost is the device cycles charged per injected check per warp
	// execution (the on-the-fly parallel checking of §3.1.1).
	CheckCost uint64
	// GTAllocCycles is the one-time cost of allocating the 4 MiB GT table
	// at context launch — the reason a few nearly-FP-free programs end up
	// below the diagonal in Figure 5.
	GTAllocCycles uint64
}

// DefaultDetectorConfig returns the configuration used in the evaluation.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		UseGT:         true,
		CheckCost:     8,
		GTAllocCycles: 10_000,
	}
}

// DetectorStats counts detector activity.
type DetectorStats struct {
	// DynamicExceptions counts every lane-level exceptional result seen.
	DynamicExceptions uint64
	// RecordsPushed counts host-bound packets.
	RecordsPushed uint64
	// SaturatedSkips counts injected calls skipped by the GT-saturation
	// fast path: the site's whole ⟨exception, location, format⟩ key space
	// was already in the global table, so the 32-lane check loop was
	// bypassed (the on-device analogue of the paper's GT early exit).
	SaturatedSkips uint64
	// LocationsDropped counts distinct instruction locations that could
	// not get their own E_loc id because the 16-bit location table was
	// full; they share the overflow sentinel location.
	LocationsDropped uint64
	// UnknownPackets counts channel packets whose payload was not a Key
	// and had to be dropped.
	UnknownPackets uint64
}

// Detector is the GPU-FPX detector tool.
type Detector struct {
	cfg   DetectorConfig
	white map[string]bool
	locs  *LocTable
	// gt is the host mirror of the device's 4 MiB global dedup table, held
	// as one bit per ⟨exception, location, format⟩ key. The simulated cost
	// of the real table is modeled by GTBytes/GTAllocCycles; the host only
	// needs membership, so 64 keys pack per word and a detector costs
	// GTEntries/8 host bytes instead of GTEntries*4.
	gt  []uint64
	out io.Writer

	records   []Record
	summary   Summary
	stats     DetectorStats
	hostSeen  map[Key]bool    // host-side dedup for the w/o-GT phase
	announced map[string]bool // kernels already greeted in verbose mode

	gtCharged bool

	// scratchKey is the in-flight record key. Channel delivery is
	// synchronous (PushPacket invokes the consumer before returning), so
	// one reused slot per detector replaces a heap-boxed Key per pushed
	// record.
	scratchKey Key
}

// gtPool recycles the host GT mirror across detector runs: the 128 KiB
// bitmap is cleared on reuse instead of reallocated per run.
var gtPool sync.Pool

// NewDetector builds a detector tool; use AttachDetector to hook it into a
// context.
func NewDetector(cfg DetectorConfig) *Detector {
	d := &Detector{
		cfg:  cfg,
		locs: NewLocTable(),
		out:  cfg.Output,
	}
	if d.out == nil {
		d.out = io.Discard
	}
	if cfg.UseGT {
		if v := gtPool.Get(); v != nil {
			d.gt = *(v.(*[]uint64))
			clear(d.gt)
		} else {
			d.gt = make([]uint64, GTEntries/64)
		}
	}
	if len(cfg.Whitelist) > 0 {
		d.white = make(map[string]bool, len(cfg.Whitelist))
		for _, n := range cfg.Whitelist {
			d.white[n] = true
		}
	}
	return d
}

// AttachDetector creates a detector and attaches it to the context through
// the nvbit framework (the LD_PRELOAD moment).
func AttachDetector(ctx *cuda.Context, cfg DetectorConfig) *Detector {
	d := NewDetector(cfg)
	nvbit.Attach(ctx, d, nvbit.DefaultCosts())
	ctx.Dev.OnPacket(d.onPacket)
	ctx.Intercept(gtCharger{d})
	return d
}

// gtCharger charges the one-time GT allocation at the first launch.
type gtCharger struct{ d *Detector }

func (g gtCharger) OnLaunch(ev *cuda.LaunchEvent) {
	if g.d.cfg.UseGT && !g.d.gtCharged {
		g.d.gtCharged = true
		ev.HostCycles += g.d.cfg.GTAllocCycles
	}
}
func (g gtCharger) OnExit() {}

// Name implements nvbit.Tool.
func (d *Detector) Name() string { return "GPU-FPX-detector" }

// ShouldInstrument implements Algorithm 3.
func (d *Detector) ShouldInstrument(k *sass.Kernel, invocation int) bool {
	if d.white != nil && !d.white[k.Name] {
		return false
	}
	if f := d.cfg.FreqRednFactor; f > 1 && invocation%f != 0 {
		return false
	}
	if d.cfg.Verbose && !d.announced[k.Name] {
		// The per-kernel progress lines of Listing 6.
		if d.announced == nil {
			d.announced = make(map[string]bool)
		}
		d.announced[k.Name] = true
		fmt.Fprintf(d.out, "Running #GPU-FPX: kernel [%s] ...\n", k.Name)
	}
	return true
}

// Instrument implements Algorithm 1: pick the specialized injection
// function per FP instruction.
func (d *Detector) Instrument(k *sass.Kernel) map[int][]device.InjectedCall {
	inj := make(map[int][]device.InjectedCall)
	for i := range k.Instrs {
		in := &k.Instrs[i]
		fn := d.selectInjection(k.Name, in)
		if fn == nil {
			continue
		}
		detSites.Add(1)
		inj[in.PC] = append(inj[in.PC], device.InjectedCall{
			When: device.After,
			Cost: d.cfg.CheckCost,
			Fn:   fn,
		})
	}
	return inj
}

// detSite is one injection site: the static identity checkFn closes over,
// plus the site's saturation state. Sites are created once per kernel at
// Instrument time, so sat persists across launches exactly as the previous
// closure-captured state did.
type detSite struct {
	loc     uint16
	fp      fpval.Format
	regBase int
	wide    bool
	div0    bool
	sat     *siteState
}

// masks runs the site's lowered classification pass over the executing
// lanes.
func (s *detSite) masks(ctx *device.InjCtx) (nan, inf, sub uint32) {
	switch {
	case s.wide:
		return ctx.ExcMasks64(s.regBase)
	case s.fp == fpval.FP16:
		return ctx.ExcMasks16(s.regBase)
	default:
		return ctx.ExcMasks32(s.regBase)
	}
}

// selectInjection is the body of Algorithm 1.
func (d *Detector) selectInjection(kernel string, in *sass.Instr) device.InjectFn {
	dest, hasDest := in.DestReg()
	if !hasDest || dest == sass.RZ {
		return nil
	}
	loc := d.locs.ID(kernel, in)
	site := func(fp fpval.Format, regBase int, wide, div0 bool) *detSite {
		return &detSite{
			loc: loc, fp: fp, regBase: regBase,
			wide: wide, div0: div0, sat: newSiteState(div0),
		}
	}
	switch {
	case in.IsRcp():
		if in.Is64H() {
			// check_64_div0(RdestNum-1, RdestNum): the destination holds
			// the high half, the pair is (Rd-1, Rd).
			return d.checkFn(site(fpval.FP64, dest-1, true, true))
		}
		return d.checkFn(site(fpval.FP32, dest, false, true))
	case in.Op.IsFP32Compute(), in.Op == sass.OpFSEL, in.Op == sass.OpFMNMX:
		return d.checkFn(site(fpval.FP32, dest, false, false))
	case in.Op.IsFP64Compute():
		if in.Is64H() {
			return d.checkFn(site(fpval.FP64, dest-1, true, false))
		}
		return d.checkFn(site(fpval.FP64, dest, true, false))
	case in.Op.IsFP16Compute():
		// The E_fp=FP16 extension the paper plans for.
		return d.checkFn(site(fpval.FP16, dest, false, false))
	case in.Op == sass.OpHMMA:
		// Tensor-core extension (§6 future work): each lane holds two
		// accumulator elements — an FP32 register pair, or two FP16 halves
		// packed into one register — and both must be checked.
		if fmt, ok := in.HMMADestFormat(); ok {
			return d.checkHMMAFn(loc, fmt, dest)
		}
		return nil
	default:
		// skip instrumentation (Algorithm 1 line 17)
		return nil
	}
}

// checkFn is the injected code of Algorithm 2: every lane checks its
// destination value and results are gathered at the warp leader. With GT
// enabled, only table-missing records cross the channel; without it (the
// Figure 4 "w/o GT" evolution phase) every exceptional lane value is pushed
// — the per-occurrence traffic that still congested, and occasionally hung,
// the earlier tool version.
func (d *Detector) checkFn(site *detSite) device.InjectFn {
	return func(ctx *device.InjCtx) error {
		if site.sat.done {
			// Warp-level fast path: every key this site can produce is
			// already in GT, so no lane value can generate new traffic.
			d.stats.SaturatedSkips++
			return nil
		}
		// One lowered classification pass over the executing lanes; the
		// common no-exception warp exits on the combined mask without any
		// per-lane bookkeeping.
		nan, inf, sub := site.masks(ctx)
		if nan|inf|sub == 0 {
			return nil
		}
		return d.checkMasks(site, nan, inf, sub, ctx.Dev)
	}
}

// checkMasks is the per-bit half of the Algorithm 2 check. It classifies,
// dedups through GT, and ships table-missing records.
func (d *Detector) checkMasks(site *detSite, nan, inf, sub uint32, dev *device.Device) error {
	all := nan | inf | sub
	for m := all; m != 0; m &= m - 1 {
		bit := m & -m
		var e fpval.Except
		switch {
		case nan&bit != 0:
			e = fpval.ExcNaN
		case inf&bit != 0:
			e = fpval.ExcInf
		default:
			e = fpval.ExcSub
		}
		if site.div0 && e != fpval.ExcSub {
			// Reciprocal sites report NaN/INF as division by zero
			// (Algorithm 1, lines 2-7).
			e = fpval.ExcDiv0
		}
		d.stats.DynamicExceptions++
		key := EncodeID(e, site.loc, site.fp)
		if d.gt != nil {
			if d.gt[key>>6]&(1<<(key&63)) != 0 {
				continue
			}
			d.gt[key>>6] |= 1 << (key & 63)
			site.sat.insert()
		}
		d.stats.RecordsPushed++
		d.scratchKey = key
		if err := dev.PushPacket(device.Packet{Words: 1, Payload: &d.scratchKey}); err != nil {
			return err
		}
	}
	return nil
}

// siteState tracks GT saturation for one injection site. A site can only
// ever produce a fixed key set — ⟨loc, fp⟩ are baked into the closure, and
// fpval.CheckExce maps to {NaN, INF, Subnormal} for normal sites or
// {DIV0, Subnormal} for reciprocal sites — so once this site has inserted
// that many distinct keys into GT, every future check is a guaranteed
// no-op and the lane loop can be skipped.
type siteState struct {
	need, seen uint8
	done       bool
}

func newSiteState(div0 bool) *siteState {
	if div0 {
		return &siteState{need: 2} // {DIV0, Subnormal}
	}
	return &siteState{need: 3} // {NaN, INF, Subnormal}
}

// insert records that this site put a previously-missing key into GT.
func (s *siteState) insert() {
	s.seen++
	if s.seen >= s.need {
		s.done = true
	}
}

// checkHMMAFn checks a tensor-core destination: two accumulator elements
// per lane, either the FP32 pair (Rd, Rd+1) or the lo/hi FP16 halves of Rd.
// Dedup and channel behaviour match checkFn — the record format needs no
// change, which is the point of the E_fp field: tensor exceptions are just
// more ⟨exception, location, format⟩ triplets.
func (d *Detector) checkHMMAFn(loc uint16, fp fpval.Format, regBase int) device.InjectFn {
	sat := newSiteState(false)
	return func(ctx *device.InjCtx) error {
		if sat.done {
			d.stats.SaturatedSkips++
			return nil
		}
		for m := ctx.ExecMask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			var vals [2]uint64
			if fp == fpval.FP32 {
				vals[0] = uint64(ctx.Reg32(lane, regBase))
				vals[1] = uint64(ctx.Reg32(lane, regBase+1))
			} else {
				packed := ctx.Reg32(lane, regBase)
				vals[0] = uint64(packed & 0xFFFF)
				vals[1] = uint64(packed >> 16)
			}
			for _, raw := range vals {
				e := fpval.CheckExce(fp, raw, false)
				if e == fpval.ExcNone {
					continue
				}
				d.stats.DynamicExceptions++
				key := EncodeID(e, loc, fp)
				if d.gt != nil {
					if d.gt[key>>6]&(1<<(key&63)) != 0 {
						continue
					}
					d.gt[key>>6] |= 1 << (key & 63)
					sat.insert()
				}
				d.stats.RecordsPushed++
				d.scratchKey = key
				if err := ctx.Dev.PushPacket(device.Packet{Words: 1, Payload: &d.scratchKey}); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// onPacket is the host-side channel consumer: it decodes pushed keys into
// records (and, without GT, dedupes on the host instead).
func (d *Detector) onPacket(p device.Packet) {
	pk, ok := p.Payload.(*Key)
	if !ok {
		// Not a detector record: count it instead of discarding silently
		// (a foreign tool sharing the channel, or a framework bug).
		d.stats.UnknownPackets++
		return
	}
	key := *pk
	if d.gt == nil {
		// w/o GT phase: the device floods duplicates; dedupe on the host.
		if d.hostSeen == nil {
			d.hostSeen = make(map[Key]bool)
		}
		if d.hostSeen[key] {
			return
		}
		d.hostSeen[key] = true
	}
	exc, loc, fp := key.Decode()
	info, _ := d.locs.Info(loc)
	r := Record{Exc: exc, Fp: fp, LocInfo: info}
	d.records = append(d.records, r)
	d.summary.Add(fp, exc)
	if d.cfg.OnRecord != nil {
		d.cfg.OnRecord(r)
	}
	if d.cfg.Verbose {
		fmt.Fprintln(d.out, r)
	}
}

// OnExit prints the final report.
func (d *Detector) OnExit() {
	if !d.cfg.Verbose {
		for _, r := range d.records {
			fmt.Fprintln(d.out, r)
		}
	}
	if n := d.stats.UnknownPackets; n > 0 {
		fmt.Fprintf(d.out, "#GPU-FPX warning: %d channel packets with non-record payloads dropped\n", n)
	}
	fmt.Fprintf(d.out, "#GPU-FPX summary: %d unique exception records (%d severe), %d dynamic exceptions\n",
		d.summary.Total(), d.summary.Severe(), d.stats.DynamicExceptions)
}

// Records returns the deduplicated exception records received so far.
func (d *Detector) Records() []Record { return d.records }

// Recycle returns the detector's reusable buffers — the GT mirror and the
// location table — to their shared pools. Call it only once the run is over
// and its report assembled; records and summaries already extracted are
// copies and stay valid.
func (d *Detector) Recycle() {
	if d.gt != nil {
		g := d.gt
		d.gt = nil
		gtPool.Put(&g)
	}
	if d.locs != nil {
		d.locs.Recycle()
		d.locs = nil
	}
}

// Summary returns the per-format/category unique-record counts (a Table 4
// row).
func (d *Detector) Summary() Summary { return d.summary }

// Stats returns detector counters.
func (d *Detector) Stats() DetectorStats {
	s := d.stats
	s.LocationsDropped = uint64(d.locs.Dropped())
	return s
}
