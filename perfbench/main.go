// Command perfbench is the repository benchmark: three workloads run
// against the product defaults (fused executor, sweep and serve workers =
// GOMAXPROCS, no block parallelism, sequential campaigns), every output
// checked, every end-to-end metric printed by name and unit.
//
//	go run . --workload check-mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 the same workload runs its window
// with its ops paired, one of each pair traced (their paired difference is
// the tracing overhead), then a fixed set of layer probes runs with spans
// around each call into a layer, and the JSON holds the per-layer metrics.
// The process exits 1 when any output check fails. See README.md for the
// workloads, metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"gpufpx/pkg/gpufpx"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	seed   uint64
	window time.Duration
	traced bool
	tmp    string // scratch directory inside the checkout
	tr     *tracer

	mu                sync.Mutex // guards the counts below; clients run concurrently
	attempted, failed int
	failures          []string // first few failure messages

	metrics map[string]metric
}

// count records one attempted operation; a non-nil err fails it.
func (r *run) count(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// phase holds what a timed window measured.
type phase struct {
	lat   []float64     // per-op latencies, ms
	seqs  [][]float64   // the same latencies per client, in issue order
	units float64       // throughput units completed (requests or trials)
	wall  time.Duration // the window's clock for throughput
	cpu   time.Duration // process CPU over the window
}

// endToEnd records the end-to-end metrics of a workload.
func (r *run) endToEnd(setups []time.Duration, p phase, heapMB float64) {
	var ss []float64
	for _, d := range setups {
		ss = append(ss, d.Seconds())
	}
	r.set("setup_s", median(ss), "s")
	r.set("throughput", p.units/p.wall.Seconds(), "ops/s")
	r.set("p50_ms", quantile(p.lat, 0.50), "ms")
	r.set("p99_ms", quantile(p.lat, 0.99), "ms")
	r.set("cpu_ms", ms(p.cpu)/float64(len(p.lat)), "ms")
	r.set("heap_live_mb", heapMB, "MB")
}

// windowFn measures a workload for d. With a non-nil tr the window is
// traced: each client's ops pair up, one of each pair traced (see
// opTracer), and the window ends on a whole pair. It returns what the
// window measured and the live heap read after the window's fixed-work
// prefix.
type windowFn func(d time.Duration, tr *tracer) (phase, float64, error)

// tracedOp reports whether a traced window traces its k-th op on a
// client. Ops pair up as (k, k+1) for even k, and the traced op is second
// in even pairs and first in odd ones (untraced, traced, traced,
// untraced, ...), so both ops of a pair meet the same host conditions and
// the advantage of going second cancels over the pairs.
func tracedOp(k int) bool { return k%2 != k/2%2 }

// opTracer is the tracer of a traced window's k-th op: tr or nil.
func opTracer(tr *tracer, k int) *tracer {
	if !tracedOp(k) {
		return nil
	}
	return tr
}

// pairUp splits each client's op sequence into its untraced and traced ops
// and returns the tracing overhead: the mean of two medians of traced
// minus untraced latency per pair, one over the pairs with the traced op
// second and one over those with it first.
func pairUp(seqs [][]float64) (untraced, traced []float64, overhead float64) {
	var diffs [2][]float64 // by the traced op's position in its pair
	for _, seq := range seqs {
		for k := 0; k+1 < len(seq); k += 2 {
			u, t := seq[k], seq[k+1]
			if tracedOp(k) {
				u, t = t, u
			}
			untraced = append(untraced, u)
			traced = append(traced, t)
			diffs[k/2%2] = append(diffs[k/2%2], t-u)
		}
	}
	switch {
	case len(diffs[1]) == 0:
		overhead = median(diffs[0])
	case len(diffs[0]) == 0:
		overhead = median(diffs[1])
	default:
		overhead = (median(diffs[0]) + median(diffs[1])) / 2
	}
	return untraced, traced, overhead
}

// measure runs the workload's window. Untraced, it reports the end-to-end
// metrics. Traced, it runs one window of paired untraced and traced ops —
// the paired differences give the tracing overhead (see pairUp) — and then
// the layer probes.
func (r *run) measure(setups []time.Duration, win windowFn) error {
	if !r.traced {
		p, heapMB, err := win(r.window, nil)
		if err != nil {
			return err
		}
		r.endToEnd(setups, p, heapMB)
		return nil
	}
	p, _, err := win(r.window, r.tr)
	if err != nil {
		return err
	}
	un, tp, over := pairUp(p.seqs)
	u := median(un)
	fmt.Printf("trace: %d op pairs\n", len(un))
	r.set("trace.untraced_p50_ms", u, "ms")
	r.set("trace.traced_p50_ms", median(tp), "ms")
	r.set("trace.overhead_ms", over, "ms")
	r.set("trace.overhead_pct", 100*over/u, "%")
	return runProbes(r)
}

// parallelFor runs fn(0..n-1) over GOMAXPROCS goroutines.
func parallelFor(n int, fn func(int)) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// setupN runs a workload's set-up reps times from cold caches and returns
// each duration; setup_s is their median. The count is fixed per workload
// (enough that a set-up of milliseconds is still a median of many), since
// every set-up leaves kernels in the never-evicting caches and the live
// heap must not depend on how fast set-up ran.
func setupN(r *run, reps int, setup func() error) ([]time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < reps; i++ {
		id := r.tr.start("setup", 0, i, 0)
		t0 := time.Now()
		err := setup()
		ds = append(ds, time.Since(t0))
		r.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	return ds, nil
}

// sequentialWindow runs one op as the window's fixed-work prefix — it is
// checked and counted, then the live heap is read — and then runs op back
// to back until d has elapsed (finishing the op in flight, and in a traced
// window the pair in flight). The prefix is outside every timer, so the
// first op's one-time costs (heap growth, first-touch allocations) do not
// land in the latency samples. op gets the op's tracer (nil: untraced) and
// returns its throughput credit.
func sequentialWindow(d time.Duration, tr *tracer, op func(i int, tr *tracer) (float64, error)) (phase, float64, error) {
	if _, err := op(0, nil); err != nil {
		return phase{}, 0, err
	}
	heapMB := liveHeapMB()
	var p phase
	for k := 0; p.wall < d || (tr != nil && k%2 == 1); k++ {
		cpu0, t0 := cpuTime(), time.Now()
		units, err := op(k+1, opTracer(tr, k))
		dt := time.Since(t0)
		p.cpu += cpuTime() - cpu0
		p.wall += dt
		p.lat = append(p.lat, ms(dt))
		if err != nil {
			return p, heapMB, err
		}
		p.units += units
	}
	p.seqs = [][]float64{p.lat}
	fmt.Printf("window: %d ops, latencies ms %.1f\n", len(p.lat), p.lat)
	return p, heapMB, nil
}

// workloads maps names to their runners. Each runner sets up a fixed number
// of times, measures its window (or, traced, runs the overhead halves and
// the layer probes) and fills r.metrics.
var workloads = map[string]func(*run) error{
	"paper-repro":       runPaper,
	"check-mix":         runCheckMix,
	"check-sass-unique": runSASSUnique,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-repro, check-mix or check-sass-unique")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	runWorkload, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}

	// The product CLIs (fpx-bench, fpx-serve) run the fused executor by
	// default; the library's own default is the lowered tier.
	mode, err := gpufpx.ParseExecMode("fused")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	gpufpx.SetDefaultExecMode(mode)

	tmp, err := filepath.Abs(filepath.Join(".bench_build", "tmp"))
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := &run{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		tmp:     tmp,
		metrics: make(map[string]metric),
	}
	if r.traced {
		r.tr = newTracer()
		installPrelowerHook(r)
	}
	if err := runWorkload(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if r.traced {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", *name, *seed))
		spans := r.tr.closed()
		printLayerTable(os.Stdout, layerTable(spans))
		if err := writeChromeTrace(path, spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d spans written to %s\n", len(spans), path)
	}

	if r.attempted == 0 {
		r.count(fmt.Errorf("no operation ran"))
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	var names []string
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-28s %16.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "perfbench: peak RSS %.0f MB\n", peakRSSMB())
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}
