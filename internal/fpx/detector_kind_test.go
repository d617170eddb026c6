package fpx

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gpufpx/internal/device"
	"gpufpx/internal/fpval"
)

// refCheckMasks is the per-lane check loop the per-kind checkMasks replaced:
// one classification, key encoding and GT probe per exceptional lane. It
// stays as the reference the per-kind version must reproduce exactly.
func refCheckMasks(d *Detector, site *detSite, nan, inf, sub uint32, dev *device.Device) error {
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

// maskCall is one injected check: the site it runs at and its lane masks.
type maskCall struct {
	site          int
	nan, inf, sub uint32
}

// checkRig is one detector wired to its own device, logging every channel
// packet before the detector consumes it.
type checkRig struct {
	d       *Detector
	dev     *device.Device
	sites   []*detSite
	packets []Key
	err     error
	calls   int
}

// drainCycles is the channel cost of one single-word packet.
var drainCycles = device.DefaultConfig().ChannelCyclesPerWord

func newCheckRig(useGT bool, hangBudget uint64) *checkRig {
	cfg := DefaultDetectorConfig()
	cfg.UseGT = useGT
	r := &checkRig{d: NewDetector(cfg)}
	dc := device.DefaultConfig()
	if hangBudget > 0 {
		// No backlog window: every push stalls for its drain time, so the
		// watchdog trips after hangBudget/drainCycles pushes.
		dc.ChannelCapacity = 0
		dc.HangBudget = hangBudget
	}
	r.dev = device.New(dc)
	r.dev.OnPacket(func(p device.Packet) {
		r.packets = append(r.packets, *p.Payload.(*Key))
		r.d.onPacket(p)
	})
	// Two regular sites sharing a format, one in FP64, and a reciprocal
	// (div0) site.
	for i, s := range []struct {
		fp   fpval.Format
		div0 bool
	}{{fpval.FP32, false}, {fpval.FP32, false}, {fpval.FP64, false}, {fpval.FP32, true}} {
		r.sites = append(r.sites, &detSite{loc: uint16(i + 1), fp: s.fp, div0: s.div0, sat: newSiteState(s.div0)})
	}
	return r
}

// run replays calls the way checkFn does — a saturated site is skipped —
// stopping at the first channel error, as the launch would.
func (r *checkRig) run(calls []maskCall, check func(*Detector, *detSite, uint32, uint32, uint32, *device.Device) error) {
	for _, c := range calls {
		site := r.sites[c.site]
		if site.sat.done {
			r.d.stats.SaturatedSkips++
			continue
		}
		r.calls++
		if c.nan|c.inf|c.sub == 0 {
			continue
		}
		if r.err = check(r.d, site, c.nan, c.inf, c.sub, r.dev); r.err != nil {
			return
		}
	}
}

func (r *checkRig) state() string {
	sat := make([]siteState, len(r.sites))
	for i, s := range r.sites {
		sat[i] = *s.sat
	}
	return fmt.Sprintf("err=%v calls=%d stats=%+v sat=%v packets=%v records=%v summary=%+v",
		r.err, r.calls, r.d.Stats(), sat, r.packets, r.d.Records(), r.d.Summary())
}

func perKind(d *Detector, s *detSite, nan, inf, sub uint32, dev *device.Device) error {
	return d.checkMasks(s, nan, inf, sub, dev)
}

// assertSameCheck runs calls through the per-kind and the per-lane check on
// fresh rigs and requires identical records, stats, saturation, channel
// packets, GT contents and error.
func assertSameCheck(t *testing.T, name string, useGT bool, hangBudget uint64, calls []maskCall) {
	t.Helper()
	got, want := newCheckRig(useGT, hangBudget), newCheckRig(useGT, hangBudget)
	defer got.d.Recycle()
	defer want.d.Recycle()
	got.run(calls, perKind)
	want.run(calls, refCheckMasks)
	if g, w := got.state(), want.state(); g != w {
		t.Fatalf("%s:\n per-kind %s\n per-lane %s", name, g, w)
	}
	if !reflect.DeepEqual(got.d.gt, want.d.gt) {
		t.Fatalf("%s: GT contents differ", name)
	}
	if hangBudget > 0 && got.err != nil && !errors.Is(got.err, device.ErrHang) {
		t.Fatalf("%s: unexpected error %v", name, got.err)
	}
}

// laneMask sets the given lanes.
func laneMask(lanes ...int) uint32 {
	var m uint32
	for _, l := range lanes {
		m |= 1 << uint(l)
	}
	return m
}

// budgets are the watchdog settings each case runs under: none, and trips
// on the first, second and third push — so ErrHang lands on every position
// of a per-kind push sequence.
var budgets = []uint64{0, drainCycles / 2, drainCycles + drainCycles/2, 2*drainCycles + drainCycles/2}

// TestPerKindCheckMatchesLaneWalkPermutations puts the lowest NaN, INF and
// subnormal lanes in every order (with more lanes of each kind above them),
// on fresh and partly pre-seeded GT, at regular and div0 sites.
func TestPerKindCheckMatchesLaneWalkPermutations(t *testing.T) {
	lows := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range lows {
		// Lane p[k]+3i for i ≥ 0 belongs to kind k, up to lane 31, plus
		// lane 31 overlapping all three (NaN wins the classification).
		var m [3]uint32
		for k := 0; k < 3; k++ {
			for l := p[k]; l < 32; l += 3 {
				m[k] |= 1 << uint(l)
			}
			m[k] |= 1 << 31
		}
		nan, inf, sub := m[0], m[1], m[2]
		for site := 0; site < 4; site++ {
			seeds := [][]maskCall{
				nil,
				{{site: site, sub: 1 << 5}},              // SUB already in GT
				{{site: site, inf: 1 << 7}},              // INF (or DIV0) already in GT
				{{site: site, nan: 1 << 9, sub: 1 << 3}}, // two of three present
			}
			for si, seed := range seeds {
				calls := append(append([]maskCall{}, seed...),
					maskCall{site: site, nan: nan, inf: inf, sub: sub},
					maskCall{site: site, sub: laneMask(4, 30)},
					maskCall{site: site, nan: nan, inf: inf, sub: sub})
				for _, useGT := range []bool{true, false} {
					for _, hb := range budgets {
						name := fmt.Sprintf("lows=%v site=%d seed=%d gt=%v hang=%d", p, site, si, useGT, hb)
						assertSameCheck(t, name, useGT, hb, calls)
					}
				}
			}
		}
	}
}

// TestPerKindCheckMatchesLaneWalkRandom drives long seeded call sequences
// of arbitrary (possibly overlapping) masks across all four sites until
// they saturate.
func TestPerKindCheckMatchesLaneWalkRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sparse := func() uint32 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return 1 << uint(rng.Intn(32))
		case 2:
			return rng.Uint32() & rng.Uint32() & rng.Uint32()
		default:
			return rng.Uint32()
		}
	}
	for trial := 0; trial < 200; trial++ {
		calls := make([]maskCall, 1+rng.Intn(12))
		for i := range calls {
			calls[i] = maskCall{site: rng.Intn(4), nan: sparse(), inf: sparse(), sub: sparse()}
		}
		for _, useGT := range []bool{true, false} {
			for _, hb := range budgets {
				assertSameCheck(t, fmt.Sprintf("trial %d gt=%v hang=%d", trial, useGT, hb), useGT, hb, calls)
			}
		}
	}
}

// TestHostSeenStartsEmptyOnReuse guards the w/o-GT host dedup set against
// pool resurrection: a set handed back dirty must come out of the pool
// clear, or a second detector would silently drop its first records.
func TestHostSeenStartsEmptyOnReuse(t *testing.T) {
	key := EncodeID(fpval.ExcSub, 1, fpval.FP32)
	cfg := DefaultDetectorConfig()
	cfg.UseGT = false
	first := NewDetector(cfg)
	first.onPacket(device.Packet{Words: 1, Payload: &key})
	if len(first.Records()) != 1 || first.hostSeen == nil {
		t.Fatalf("first detector: %d records, host set %v", len(first.Records()), first.hostSeen != nil)
	}
	for i := range first.hostSeen {
		first.hostSeen[i] = ^uint64(0) // every key marked seen
	}
	first.Recycle()

	second := NewDetector(cfg)
	defer second.Recycle()
	for i := 0; i < 2; i++ {
		second.onPacket(device.Packet{Words: 1, Payload: &key})
	}
	if n := len(second.Records()); n != 1 {
		t.Fatalf("second detector kept %d records for one key pushed twice, want 1", n)
	}
}
