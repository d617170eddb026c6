package stress

// Fleet load generation: the sustained-throughput proof of the sharded
// checking fleet. RunFleet drives a gateway in front of N serve nodes with
// closed-loop clients replaying a corpus mix, then repeats the identical
// mix against a single node at the same provisioned cycle rate, and
// records both phases as a schema-5 report.FleetRecord (BENCH_5.json).
//
// Every node is pinned to the same CycleRate — the provisioned capacity
// model of serve.Config — so the comparison measures the architecture
// (sharding, affinity, admission) rather than how many host cores the box
// happens to have. The corpus mix is chosen per run: candidate programs
// are cycle-probed locally, grouped by the shard rendezvous hashing
// assigns them, and selected so each node carries an equal share of
// simulated cycles. A mix that is balanced by construction makes the
// scaling honest: a skewed mix would measure the skew, not the fleet.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"gpufpx/internal/gateway"
	"gpufpx/internal/progs"
	"gpufpx/internal/report"
	"gpufpx/internal/serve"
	"gpufpx/pkg/gpufpx"
	"gpufpx/pkg/gpufpx/client"
)

// StartNodeFunc boots serve node i and returns its base URL and a stop
// function. RunFleet waits for the node's /healthz itself.
type StartNodeFunc func(i int) (url string, stop func() error, err error)

// FleetConfig tunes the fleet proof.
type FleetConfig struct {
	// Nodes is the fleet size of the scaled phase. Default 3.
	Nodes int
	// Clients is the closed-loop load-generator count. Default 12 — with
	// fewer clients than ~4x the fleet size, shards idle whenever the
	// rotation momentarily clusters clients on one node, and the measured
	// scale undersells the architecture.
	Clients int
	// Duration is the measured window per phase. Default 5s.
	Duration time.Duration
	// CycleRate is the provisioned per-node capacity in simulated
	// cycles/second. Default 1e7.
	CycleRate float64
	// MinMixCycles/MaxMixCycles band the per-check cost of mix candidates:
	// below the floor HTTP overhead drowns the pacing signal, above the
	// ceiling one program dominates a shard. Defaults 50k and 2M.
	MinMixCycles, MaxMixCycles uint64
	// StartNode boots one node. Required; cmd/fpx-stress re-execs itself
	// per node, tests use InProcessNode.
	StartNode StartNodeFunc
	// Out receives progress lines; nil discards them.
	Out io.Writer
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Clients <= 0 {
		c.Clients = 12
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.CycleRate <= 0 {
		c.CycleRate = 1e7
	}
	if c.MinMixCycles == 0 {
		c.MinMixCycles = 50_000
	}
	if c.MaxMixCycles == 0 {
		c.MaxMixCycles = 2_000_000
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// NodeQueueDepth and nodeWorkers size the serve nodes the harness boots:
// admission must never be the bottleneck (the pace clock is), so both
// comfortably exceed the client count.
const NodeQueueDepth = 256

// ServeNode runs one fleet node to termination: an fpx-serve-shaped HTTP
// daemon pinned to cycleRate, draining cleanly on SIGTERM/SIGINT. It is
// the body of the hidden re-exec mode of fpx-stress -fleet, exported so
// test binaries can host nodes the same way.
func ServeNode(addr string, cycleRate float64, workers int) error {
	srv := serve.New(serve.Config{
		QueueDepth: NodeQueueDepth,
		Workers:    workers,
		CycleRate:  cycleRate,
	})
	srv.Start()
	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		return err
	}
	return srv.Drain(shCtx)
}

// InProcessNode returns a StartNodeFunc hosting nodes inside the calling
// process — no per-node compile-cache isolation, but the pacing model
// (and therefore the throughput math) is identical. Tests use it to keep
// the harness single-process.
func InProcessNode(cycleRate float64, workers int) StartNodeFunc {
	return func(i int) (string, func() error, error) {
		srv := serve.New(serve.Config{
			QueueDepth: NodeQueueDepth,
			Workers:    workers,
			CycleRate:  cycleRate,
		})
		srv.Start()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		stop := func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := hs.Shutdown(ctx); err != nil {
				return err
			}
			return srv.Drain(ctx)
		}
		return "http://" + ln.Addr().String(), stop, nil
	}
}

// mixEntry is one corpus program in the candidate pool.
type mixEntry struct {
	name   string
	cycles uint64
	shard  string // node URL rendezvous assigns it in the fleet
}

// RunFleet runs the two phases and returns the schema-5 record. The
// caller decides what to do with a record that fails report.Meets —
// RunFleet itself only errors on harness failures.
func RunFleet(cfg FleetConfig) (*report.FleetRecord, error) {
	cfg = cfg.withDefaults()
	if cfg.StartNode == nil {
		return nil, fmt.Errorf("stress: FleetConfig.StartNode is required")
	}

	// Probe candidate costs locally, once: the fleet phases replay only
	// banded programs, and the balance construction needs the cycle
	// counts before any node exists.
	candidates, err := probeCandidates(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.Out, "fleet: %d corpus programs in the %d..%d cycle band\n",
		len(candidates), cfg.MinMixCycles, cfg.MaxMixCycles)

	rec := &report.FleetRecord{
		Schema:     report.FleetSchema,
		CycleRate:  cfg.CycleRate,
		Clients:    cfg.Clients,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	// Phase 1: the fleet. Booted first because the mix depends on the
	// rendezvous placement over the live node set.
	if err := func() error {
		f, err := bootFleet(cfg, cfg.Nodes)
		if err != nil {
			return err
		}
		defer f.stop()

		for i := range candidates {
			req := serve.CheckRequest{Prog: candidates[i].name}
			candidates[i].shard = f.g.Shard(gateway.ShardKey(req))
		}
		mix, perShard, err := balanceMix(candidates, f.urls)
		if err != nil {
			return err
		}
		rec.MixPrograms = mixNames(mix)
		fmt.Fprintf(cfg.Out, "fleet: balanced mix of %d programs across %d shards\n", len(mix), cfg.Nodes)

		if err := warmup(f.gwURL, mix, cfg.Clients); err != nil {
			return err
		}
		rec.Fleet = runPhase("fleet", f.gwURL, mix, cfg)
		rec.Fleet.Nodes = cfg.Nodes
		fmt.Fprintf(cfg.Out, "fleet: %d-node phase: %d requests, %.1f req/s, p50 %.1fms, p99 %.1fms\n",
			cfg.Nodes, rec.Fleet.Requests, rec.Fleet.RPS, rec.Fleet.P50MS, rec.Fleet.P99MS)

		// Per-shard view: routing counters from the gateway, cache
		// counters scraped off each node, mix balance from construction.
		for _, ns := range f.g.NodeStats() {
			hits, misses, _ := gateway.ScrapeCacheCounters(nil, ns.URL)
			sh := report.FleetShard{
				Node:        ns.URL,
				Programs:    perShard[ns.URL].programs,
				MixCycles:   perShard[ns.URL].cycles,
				Requests:    ns.Routed,
				CacheHits:   hits,
				CacheMisses: misses,
			}
			if total := hits + misses; total > 0 {
				sh.HitRate = float64(hits) / float64(total)
			}
			rec.Shards = append(rec.Shards, sh)
		}
		return nil
	}(); err != nil {
		return nil, err
	}

	// Phase 2: one node at the same provisioned rate, same mix.
	if err := func() error {
		f, err := bootFleet(cfg, 1)
		if err != nil {
			return err
		}
		defer f.stop()
		mix := mixFromNames(rec.MixPrograms, candidates)
		if err := warmup(f.gwURL, mix, cfg.Clients); err != nil {
			return err
		}
		rec.Single = runPhase("single", f.gwURL, mix, cfg)
		rec.Single.Nodes = 1
		fmt.Fprintf(cfg.Out, "fleet: single-node phase: %d requests, %.1f req/s, p50 %.1fms, p99 %.1fms\n",
			rec.Single.Requests, rec.Single.RPS, rec.Single.P50MS, rec.Single.P99MS)
		return nil
	}(); err != nil {
		return nil, err
	}

	if rec.Single.RPS > 0 {
		rec.Scale = rec.Fleet.RPS / rec.Single.RPS
	}
	if rec.Single.P99MS > 0 {
		rec.P99Ratio = rec.Fleet.P99MS / rec.Single.P99MS
	}
	return rec, nil
}

// probeCandidates runs every corpus program once in-process under the
// detector and keeps those whose cycle cost falls in the mix band.
func probeCandidates(cfg FleetConfig) ([]mixEntry, error) {
	var out []mixEntry
	for _, p := range progs.All() {
		s := gpufpx.New(gpufpx.WithTool(gpufpx.Detector(gpufpx.DefaultDetectorConfig())))
		rep, err := s.Run(context.Background(), gpufpx.Program(p.Name))
		if err != nil {
			continue // hang/budget programs have no place in a load mix
		}
		if rep.Cycles < cfg.MinMixCycles || rep.Cycles > cfg.MaxMixCycles {
			continue
		}
		out = append(out, mixEntry{name: p.Name, cycles: rep.Cycles})
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("stress: only %d corpus programs in the mix cycle band", len(out))
	}
	return out, nil
}

// shardLoad is one node's constructed share of the mix.
type shardLoad struct {
	programs int
	cycles   uint64
}

// balanceMix selects a subset of candidates such that every shard carries
// a near-equal sum of simulated cycles. Within each shard's group the
// largest programs are taken first, up to the smallest group's total — the
// classic greedy fill, good enough because the band bounds any single
// program's share.
func balanceMix(candidates []mixEntry, nodeURLs []string) ([]mixEntry, map[string]shardLoad, error) {
	groups := map[string][]mixEntry{}
	for _, c := range candidates {
		groups[c.shard] = append(groups[c.shard], c)
	}
	var target uint64
	for _, u := range nodeURLs {
		g := groups[u]
		if len(g) == 0 {
			return nil, nil, fmt.Errorf("stress: no mix candidate routes to %s; widen the cycle band", u)
		}
		var sum uint64
		for _, c := range g {
			sum += c.cycles
		}
		if target == 0 || sum < target {
			target = sum
		}
	}
	var mix []mixEntry
	per := map[string]shardLoad{}
	for _, u := range nodeURLs {
		g := groups[u]
		sort.Slice(g, func(i, j int) bool {
			if g[i].cycles != g[j].cycles {
				return g[i].cycles > g[j].cycles
			}
			return g[i].name < g[j].name
		})
		load := shardLoad{}
		for _, c := range g {
			if load.cycles+c.cycles > target && load.programs > 0 {
				continue
			}
			load.cycles += c.cycles
			load.programs++
			mix = append(mix, c)
		}
		per[u] = load
	}
	// Deterministic replay order regardless of shard grouping.
	sort.Slice(mix, func(i, j int) bool { return mix[i].name < mix[j].name })
	return mix, per, nil
}

func mixNames(mix []mixEntry) []string {
	out := make([]string, len(mix))
	for i, m := range mix {
		out[i] = m.name
	}
	return out
}

func mixFromNames(names []string, candidates []mixEntry) []mixEntry {
	byName := map[string]mixEntry{}
	for _, c := range candidates {
		byName[c.name] = c
	}
	out := make([]mixEntry, 0, len(names))
	for _, n := range names {
		out = append(out, byName[n])
	}
	return out
}

// fleetHandle is a booted gateway-plus-nodes stack.
type fleetHandle struct {
	g     *gateway.Gateway
	gwURL string
	urls  []string
	stop  func()
}

// bootFleet starts n nodes, waits for their health endpoints, and mounts
// a gateway over them on a loopback listener.
func bootFleet(cfg FleetConfig, n int) (*fleetHandle, error) {
	var stops []func() error
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	var urls []string
	for i := 0; i < n; i++ {
		url, stop, err := cfg.StartNode(i)
		if err != nil {
			stopAll()
			return nil, fmt.Errorf("stress: starting node %d: %w", i, err)
		}
		stops = append(stops, stop)
		urls = append(urls, url)
	}
	for _, u := range urls {
		if err := waitHealthy(u, 10*time.Second); err != nil {
			stopAll()
			return nil, err
		}
	}
	g, err := gateway.New(gateway.Config{Nodes: urls, HealthInterval: 250 * time.Millisecond})
	if err != nil {
		stopAll()
		return nil, err
	}
	g.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.Stop()
		stopAll()
		return nil, err
	}
	hs := &http.Server{Handler: g.Handler()}
	go hs.Serve(ln)
	return &fleetHandle{
		g:     g,
		gwURL: "http://" + ln.Addr().String(),
		urls:  urls,
		stop: func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			hs.Shutdown(ctx)
			g.Stop()
			stopAll()
		},
	}, nil
}

// waitHealthy polls a node's /healthz until it answers 200.
func waitHealthy(url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stress: node %s not healthy after %v", url, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// warmup runs each mix program once through the gateway so every shard's
// compile/lowering caches are hot before the measured window.
func warmup(gwURL string, mix []mixEntry, workers int) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(mix))
	sem := make(chan struct{}, workers)
	for _, m := range mix {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cli := client.New(gwURL, client.Config{})
			if _, err := cli.Check(context.Background(), client.CheckRequest{Prog: m.name, Wait: true}); err != nil {
				errs <- fmt.Errorf("stress: warmup %s: %w", m.name, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// runPhase drives the closed-loop clients for the measured window and
// aggregates throughput and latency.
func runPhase(name, gwURL string, mix []mixEntry, cfg FleetConfig) report.FleetPhase {
	start := time.Now()
	deadline := start.Add(cfg.Duration)

	type sample struct {
		lat time.Duration
		err bool
	}
	var mu sync.Mutex
	var samples []sample

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := client.New(gwURL, client.Config{Seed: uint64(c + 1)})
			// Offset the rotation so clients spread across shards instead
			// of marching through the mix in lockstep.
			for j := c * len(mix) / cfg.Clients; time.Now().Before(deadline); j++ {
				req := client.CheckRequest{Prog: mix[j%len(mix)].name, Wait: true}
				t0 := time.Now()
				_, err := cli.Check(context.Background(), req)
				s := sample{lat: time.Since(t0), err: err != nil}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	ph := report.FleetPhase{Name: name, DurationMS: float64(elapsed) / float64(time.Millisecond)}
	var lats []time.Duration
	for _, s := range samples {
		if s.err {
			ph.Errors++
			continue
		}
		ph.Requests++
		lats = append(lats, s.lat)
	}
	if elapsed > 0 {
		ph.RPS = float64(ph.Requests) / elapsed.Seconds()
	}
	ph.P50MS, ph.P99MS = percentiles(lats)
	return ph
}

// percentiles returns the p50 and p99 of the latency set in milliseconds.
func percentiles(lats []time.Duration) (p50, p99 float64) {
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(lats)-1))
		return float64(lats[i]) / float64(time.Millisecond)
	}
	return at(0.50), at(0.99)
}
