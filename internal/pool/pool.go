// Package pool is the shared fan-out engine of the harness: a bounded
// worker pool that runs index-addressed jobs with deterministic result
// placement. It began life inside internal/bench as the parallel sweep
// scheduler and was extracted so the serving layer (fpx-serve's batch
// endpoint) can feed many kernels through the same engine without
// importing the benchmark harness.
//
// Every job owns a private device, context and seeded RunContext, so jobs
// are independent and the fan-out is embarrassingly parallel; the only
// shared state is the cc compile cache (concurrency-safe, hands out
// immutable kernels) and each kernel's program (built once, read-only).
// Workers write results back by index, so assembled slices — and every
// table, figure or report derived from them — are byte-identical to a
// serial run.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the degree of parallelism of the harness: the number of
// goroutines every fan-out loop spreads over. Zero (the default) means
// GOMAXPROCS. fpx-bench sets it from the -j flag; fpx-serve sets it from
// its worker count; tests pin it to compare schedules.
var Workers int

// Count resolves the configured degree of parallelism against a job
// count: at least one worker, never more workers than jobs.
func Count(n int) int {
	w := Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n), fanned out over the
// configured worker pool. fn must confine its writes to index-i result
// slots; ForEach guarantees completion of all calls before returning, and
// degrades to a plain loop at one worker.
func ForEach(n int, fn func(int)) {
	ForEachN(Count(n), n, fn)
}

// ForEachN is ForEach with an explicit worker count, for callers (the
// serve batch path) that budget parallelism per request instead of
// through the package-level Workers knob. w is clamped to [1, n].
func ForEachN(w, n int, fn func(int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
