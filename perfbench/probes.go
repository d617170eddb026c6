package main

// The layer probes of the traced run: a fixed amount of work that calls
// each module's public functions from this file, with a span around every
// call, and turns the spans and the modules' own counters into the
// per-layer metrics. The probes start from an empty compile cache and run
// one goroutine at a time (the paper-repro op inside excepted, which fans
// out as the product does), so their exact counts repeat bit for bit.

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"gpufpx/internal/cc"
	"gpufpx/internal/device"
	"gpufpx/internal/progs"
	"gpufpx/internal/sass"
	"gpufpx/pkg/gpufpx"
)

// hookParent is the span the compile hook's spans nest under: the probe
// call in flight, or 0 while concurrent workload traffic compiles.
// hookCalls and hookTime accumulate the hook's pre-lowering work.
var (
	hookParent atomic.Int64
	hookCalls  atomic.Int64
	hookTime   atomic.Int64 // nanoseconds
)

// installPrelowerHook replaces the facade's compile hook with one that
// runs the same device.Prelower inside a span.
func installPrelowerHook(r *run) {
	cc.OnCompile(func(k *sass.Kernel) {
		t0 := time.Now()
		device.Prelower(k)
		t1 := time.Now()
		hookCalls.Add(1)
		hookTime.Add(int64(t1.Sub(t0)))
		r.tr.add("device.prelower", int(hookParent.Load()), 0, 0, t0, t1)
	})
}

// probeTools are the tool bodies timed against plain, with the span name
// each one's launches are recorded under.
var probeTools = []struct {
	span string
	tool gpufpx.Tool
}{
	{"device.launch", gpufpx.Plain()},
	{"fpx.detector", gpufpx.Detector(gpufpx.DefaultDetectorConfig())},
	{"fpx.analyzer", gpufpx.Analyzer(gpufpx.DefaultAnalyzerConfig())},
	{"fpx.shadow", gpufpx.Shadow(gpufpx.DefaultShadowConfig())},
	{"binfpe.tool", gpufpx.BinFPE()},
}

const (
	probeReps     = 3   // repetitions of each tool-body probe
	corpusReps    = 3   // cold/warm corpus pass pairs
	goldenReps    = 9   // fault-free runs timed per campaign subject
	probeListings = 256 // generated listings through sass/device
	probeRequests = 64  // check-mix requests through the service
)

// probePrograms is a fixed slice of the corpus: every tenth program plus
// the heavy myocyte and the precision program diff-squares, minus the
// programs that hang BinFPE.
func probePrograms() []progs.Program {
	var out []progs.Program
	for i, p := range progs.All() {
		if (i%10 == 0 || p.Name == "myocyte") && !p.HangsBinFPE {
			out = append(out, p)
		}
	}
	if p, err := progs.ByName("diff-squares"); err == nil {
		out = append(out, p)
	}
	return out
}

// probeCtx carries the probe pass's state.
type probeCtx struct {
	r    *run
	tr   *tracer
	root int
	op   int

	// prelowerCalls and prelowerTime accumulate the probes' pre-lowering,
	// through the compile hook and called directly.
	prelowerCalls int64
	prelowerTime  time.Duration
}

// span times fn as a named child of parent.
func (pc *probeCtx) span(name string, parent int, fn func()) time.Duration {
	id := pc.tr.start(name, parent, pc.op, 0)
	prev := hookParent.Swap(int64(id))
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	hookParent.Store(prev)
	pc.tr.end(id)
	return d
}

func runProbes(r *run) error {
	pc := &probeCtx{r: r, tr: r.tr}
	pc.root = pc.tr.start("probe", 0, 0, 0)
	defer pc.tr.end(pc.root)

	low0, fuse0, par0 := device.LowerStatsSnapshot(), device.FuseStatsSnapshot(), device.ParStatsSnapshot()
	steps := []func() error{pc.corpus, pc.toolBodies, pc.allocs, pc.sassPath, pc.serve, pc.paper, pc.campaign}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	if _, ok := r.metrics["serve.repeat_share"]; !ok {
		// Only the check workloads send requests of their own.
		r.set("serve.repeat_share", 0, "ratio")
	}
	cc.WaitBackground()
	low, fuse, par := device.LowerStatsSnapshot(), device.FuseStatsSnapshot(), device.ParStatsSnapshot()
	r.set("device.kernels_resident", float64(low.Kernels-low0.Kernels), "count")
	r.set("device.fused_instrs", float64(fuse.FusedInstrs-fuse0.FusedInstrs), "count")
	r.set("device.hot_hits", float64(fuse.HotHits-fuse0.HotHits), "count")
	r.set("device.par_launches", float64(par.Launches-par0.Launches), "count")
	r.set("device.par_fallbacks", float64(par.Fallbacks-par0.Fallbacks), "count")
	return nil
}

// corpus runs the whole corpus under plain twice from an empty compile
// cache, one program at a time: the cold pass pays compile, decode, lower
// and fuse; the warm pass only runs. The compile hook times the
// pre-lowering, and cc.compile_ms is the rest of what the cold pass cost
// beyond the warm one. It is a difference of two passes, so each program's
// cold and warm times are the minimum over corpusReps cold/warm pairs,
// which filters out host interruptions.
func (pc *probeCtx) corpus() error {
	ps := progs.All()
	cold := make([]time.Duration, len(ps))
	warm := make([]time.Duration, len(ps))
	var prelower []float64
	for rep := 0; rep < corpusReps; rep++ {
		cc.ResetCache()
		calls0, time0 := hookCalls.Load(), hookTime.Load()
		for i, name := range []string{"probe.corpus_cold", "probe.corpus_warm"} {
			best := [2][]time.Duration{cold, warm}[i]
			pc.span(name, pc.root, func() {
				parent := int(hookParent.Load())
				for j, p := range ps {
					pc.op = j
					d := pc.span("gpufpx.run", parent, func() {
						_, err := gpufpx.New(gpufpx.WithTool(gpufpx.Plain())).Run(context.Background(), gpufpx.Program(p.Name))
						pc.r.count(err)
					})
					if rep == 0 || d < best[j] {
						best[j] = d
					}
				}
			})
		}
		d := time.Duration(hookTime.Load() - time0)
		pc.prelowerCalls += hookCalls.Load() - calls0
		pc.prelowerTime += d
		prelower = append(prelower, ms(d))
	}
	var extra time.Duration
	for j := range ps {
		extra += cold[j] - warm[j]
	}
	hits, misses := cc.CacheStats()
	pc.r.set("cc.cache_hits", float64(hits), "count")
	pc.r.set("cc.cache_misses", float64(misses), "count")
	pc.r.set("cc.compile_ms", ms(extra)-median(prelower), "ms")
	return nil
}

// toolBodies launches the probe programs under each tool through
// Session.Start / Active.Finish, timing start, the program's launches,
// finish and report encoding separately. A tool body's cost is its launch
// time minus plain's on the same program, each the minimum over probeReps.
func (pc *probeCtx) toolBodies() error {
	ps := probePrograms()
	launch := make(map[string][]time.Duration)
	var (
		start, finish, encode time.Duration
		calls, encodes        int
		bytesOut              int
		kcycles               float64
		records               int
	)
	parent := pc.tr.start("probe.tool_bodies", pc.root, 0, 0)
	defer pc.tr.end(parent)
	for rep := 0; rep < probeReps; rep++ {
		for j, p := range ps {
			pc.op = j
			for _, t := range probeTools {
				s := gpufpx.New(gpufpx.WithTool(t.tool))
				var a *gpufpx.Active
				start += pc.span("gpufpx.start", parent, func() { a = s.Start() })
				var runErr error
				d := pc.span(t.span, parent, func() {
					runErr = p.Run(progs.NewRunContext(a.Ctx, cc.Options{}))
				})
				if rep == 0 {
					launch[t.span] = append(launch[t.span], d)
				} else {
					launch[t.span][j] = min(launch[t.span][j], d)
				}
				var out *gpufpx.Report
				finish += pc.span("fpx.finish", parent, func() { out = a.Finish() })
				var buf bytes.Buffer
				var encErr error
				if out.Detector != nil || out.Analyzer != nil || out.Shadow != nil {
					encode += pc.span("report.encode", parent, func() { encErr = out.WriteJSON(&buf) })
					encodes++
				}
				a.Ctx.Dev.Release()
				if runErr == nil {
					runErr = encErr
				}
				if runErr != nil {
					runErr = fmt.Errorf("probe %s under %s: %w", p.Name, t.tool.Name(), runErr)
				}
				pc.r.count(runErr)
				calls++
				if rep == 0 {
					bytesOut += buf.Len()
					switch t.span {
					case "device.launch":
						kcycles += float64(out.Cycles) / 1000
					case "fpx.detector":
						records += len(out.Records)
					}
				}
			}
		}
	}
	total := func(span string) time.Duration {
		var sum time.Duration
		for _, d := range launch[span] {
			sum += d
		}
		return sum
	}
	plain := total("device.launch")
	pc.r.set("device.launch_ms", ms(plain), "ms")
	pc.r.set("device.sim_kcycles", kcycles, "count")
	pc.r.set("device.host_ns_per_kcycle", float64(plain.Nanoseconds())/kcycles, "ns/kcycle")
	pc.r.set("fpx.detector_ms", ms(total("fpx.detector")-plain), "ms")
	pc.r.set("fpx.analyzer_ms", ms(total("fpx.analyzer")-plain), "ms")
	pc.r.set("fpx.shadow_ms", ms(total("fpx.shadow")-plain), "ms")
	pc.r.set("binfpe.tool_ms", ms(total("binfpe.tool")-plain), "ms")
	pc.r.set("fpx.detector_records", float64(records), "count")
	pc.r.set("gpufpx.start_ms", ms(start)/float64(calls), "ms")
	pc.r.set("fpx.finish_ms", ms(finish)/float64(calls), "ms")
	pc.r.set("report.encode_ms", ms(encode)/float64(encodes), "ms")
	pc.r.set("report.bytes", float64(bytesOut), "bytes")
	return nil
}

// allocs measures the allocations of one detector Session.Run per probe
// program, on this goroutine, after the background compile worker idles.
func (pc *probeCtx) allocs() error {
	ps := probePrograms()
	var total allocSnapshot
	for _, p := range ps {
		cc.WaitBackground()
		a0 := readAllocs()
		_, err := gpufpx.New().Run(context.Background(), gpufpx.Program(p.Name))
		d := a0.since()
		pc.r.count(err)
		total.mallocs += d.mallocs
		total.bytes += d.bytes
	}
	n := float64(len(ps))
	pc.r.set("device.allocs_per_run", float64(total.mallocs)/n, "count")
	pc.r.set("device.alloc_kb_per_run", float64(total.bytes)/1024/n, "KB")
	return nil
}

// sassPath parses, pre-lowers and runs generated listings under the
// detector, checking each planted exception.
func (pc *probeCtx) sassPath() error {
	parent := pc.tr.start("probe.sass", pc.root, 0, 0)
	defer pc.tr.end(parent)
	seed := pc.r.seed ^ 0x2545F4914F6CDD1D
	var parse time.Duration
	for i := 0; i < probeListings; i++ {
		pc.op = i
		l := genListing(seed, i)
		var (
			k   *sass.Kernel
			err error
		)
		parse += pc.span("sass.parse", parent, func() { k, err = sass.Parse(l.Name, l.Text) })
		if err != nil {
			pc.r.count(fmt.Errorf("%s: %w", l.Name, err))
			continue
		}
		pc.prelowerTime += pc.span("device.prelower", parent, func() { device.Prelower(k) })
		pc.prelowerCalls++
		var rep *gpufpx.Report
		pc.span("gpufpx.run", parent, func() {
			rep, err = gpufpx.New().Run(context.Background(), gpufpx.Kernel(k, l.Grid, l.Block))
		})
		if err == nil {
			err = plantedIn(rep, l)
		}
		pc.r.count(err)
	}
	pc.r.set("sass.parse_ms", ms(parse)/probeListings, "ms")
	pc.r.set("sass.parse_calls", probeListings, "count")
	pc.r.set("device.prelower_ms", ms(pc.prelowerTime)/float64(pc.prelowerCalls), "ms")
	pc.r.set("device.prelower_calls", float64(pc.prelowerCalls), "count")
	return nil
}

// plantedIn checks a direct detector report for the planted exception.
func plantedIn(rep *gpufpx.Report, l listing) error {
	if rep.Detector != nil {
		for _, rec := range rep.Detector.Records {
			if rec.PC == l.PlantPC && rec.Exception == l.PlantExc {
				return nil
			}
		}
	}
	return fmt.Errorf("%s: planted %s at pc %d not reported", l.Name, l.PlantExc, l.PlantPC)
}

// serve sends check-mix and generated-SASS requests through a fresh
// service one at a time, each after a direct Session.Run of the same item,
// so the round trip minus the run is the service's own cost.
func (pc *probeCtx) serve() error {
	parent := pc.tr.start("probe.serve", pc.root, 0, 0)
	defer pc.tr.end(parent)
	svc, err := startService()
	if err != nil {
		return err
	}
	defer svc.close()
	pairs, err := mixPairs()
	if err != nil {
		return err
	}
	d := newDeck(pc.r.seed, len(pairs))
	seed := pc.r.seed ^ 0x94D049BB133111EB
	var req, run, over []float64
	refused, failed := 0, 0
	heap0 := liveHeapMB()
	for i := 0; i < probeRequests; i++ {
		pc.op = i
		var (
			body   []byte
			check  func(int, []byte) error
			direct func() error
		)
		if i%4 == 3 {
			l := genListing(seed, i)
			if body, err = sassBody(l); err != nil {
				return err
			}
			check = func(status int, b []byte) error { return checkPlanted(status, b, l) }
			direct = func() error {
				_, err := gpufpx.New().Run(context.Background(), gpufpx.SASSText(l.Name, l.Text, l.Grid, l.Block))
				return err
			}
		} else {
			p := pairs[d.next()]
			body = mixBody(p)
			var tail []byte
			direct = func() (err error) {
				tail, err = p.expected()
				return err
			}
			check = func(status int, b []byte) error { return checkMixBody(status, b, tail) }
		}
		var derr error
		dRun := pc.span("gpufpx.run", parent, func() { derr = direct() })
		if derr != nil {
			pc.r.count(derr)
			continue
		}
		var (
			status int
			resp   []byte
			perr   error
		)
		dReq := pc.span("serve.request", parent, func() { status, resp, perr = svc.post(body) })
		run, req, over = append(run, ms(dRun)), append(req, ms(dReq)), append(over, ms(dReq-dRun))
		switch {
		case perr != nil:
			failed++
			pc.r.count(perr)
		case status == 429 || status == 503:
			refused++
			pc.r.count(fmt.Errorf("refused with %d", status))
		default:
			if cerr := check(status, resp); cerr != nil {
				failed++
				pc.r.count(cerr)
			} else {
				pc.r.count(nil)
			}
		}
	}
	heapKB := (liveHeapMB() - heap0) * 1024
	n := float64(probeRequests)
	pc.r.set("gpufpx.run_ms", median(run), "ms")
	pc.r.set("serve.request_ms", median(req), "ms")
	pc.r.set("serve.overhead_ms", median(over), "ms")
	pc.r.set("serve.refused", float64(refused), "count")
	pc.r.set("serve.failed", float64(failed), "count")
	pc.r.set("serve.heap_kb_per_request", heapKB/n, "KB")
	return nil
}

// paper regenerates the artifacts once with spans around the bench entry
// points.
func (pc *probeCtx) paper() error {
	var buf bytes.Buffer
	id := pc.tr.start("paper-repro.op", pc.root, 0, 0)
	o := regenerate(&buf, pc.tr, id, 0)
	pc.tr.end(id)
	if err := checkPaper(o, nil); err != nil {
		pc.r.count(fmt.Errorf("probe regeneration: %w", err))
	} else {
		pc.r.count(nil)
	}
	pc.r.set("bench.sweep_ms", ms(o.sweepWall), "ms")
	pc.r.set("bench.figure6_ms", ms(o.figure6), "ms")
	pc.r.set("bench.twophase_ms", ms(o.twophase), "ms")
	pc.r.set("bench.other_artifacts_ms", ms(o.other), "ms")
	pc.r.set("bench.sweep_parallelism", o.sweepCPU.Seconds()/o.sweepWall.Seconds(), "ratio")
	return nil
}

// campaign runs two passes of the six campaigns, each campaign after
// fault-free golden-equivalent runs of the same subject. The second pass
// must reproduce the first's profile bytes; the metrics come from the
// first.
func (pc *probeCtx) campaign() error {
	parent := pc.tr.start("probe.campaign", pc.root, 0, 0)
	defer pc.tr.end(parent)
	seed := campaignSeed(pc.r.seed)
	var (
		profileTime              time.Duration
		goldenWeighted, ckptKB   float64
		trials, masked, sdc, det int
		crash                    int
		allocBytes               uint64
	)
	ref := make(map[string][]byte)
	for pass := 0; pass < 2; pass++ {
		for _, p := range campaignProgs {
			for _, t := range campaignTools {
				sess, err := campaignSession(t, seed, "")
				if err != nil {
					return err
				}
				var golden []float64
				for i := 0; pass == 0 && i < goldenReps && err == nil; i++ {
					golden = append(golden, ms(pc.span("campaign.golden_run", parent, func() {
						_, err = sess.Run(context.Background(), gpufpx.Program(p))
					})))
				}
				if err != nil {
					pc.r.count(err)
					continue
				}
				var res campaignResult
				a0 := readAllocs()
				d := pc.span("campaign.profile", parent, func() { res, err = runOneCampaign(p, t, seed, pc.r.tmp) })
				alloc := a0.since().bytes
				key := p + "/" + t
				if err == nil {
					err = checkProfile(p, res.prof, res.enc, ref[key])
				}
				pc.r.count(err)
				if err != nil || pass > 0 {
					continue
				}
				ref[key] = res.enc
				tot := res.prof.Totals
				profileTime += d
				allocBytes += alloc
				trials += tot.Trials
				masked += tot.Masked
				sdc += tot.SDC
				det += tot.Detected
				crash += tot.Crash
				ckptKB += res.checkpointKB
				goldenWeighted += median(golden) * float64(tot.Trials)
			}
		}
	}
	if trials == 0 {
		return fmt.Errorf("campaign probe ran no trials")
	}
	n := float64(trials)
	trialMS := ms(profileTime) / n
	goldenMS := goldenWeighted / n
	pc.r.set("campaign.trials", n, "count")
	pc.r.set("campaign.masked", float64(masked), "count")
	pc.r.set("campaign.sdc", float64(sdc), "count")
	pc.r.set("campaign.detected", float64(det), "count")
	pc.r.set("campaign.crash", float64(crash), "count")
	pc.r.set("campaign.trial_ms", trialMS, "ms")
	pc.r.set("campaign.golden_run_ms", goldenMS, "ms")
	pc.r.set("campaign.overhead_ms", trialMS-goldenMS, "ms")
	pc.r.set("campaign.checkpoint_kb", ckptKB, "KB")
	pc.r.set("campaign.alloc_kb_per_trial", float64(allocBytes)/1024/n, "KB")
	return nil
}
