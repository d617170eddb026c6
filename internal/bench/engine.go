package bench

// The parallel run scheduler. The fan-out engine itself lives in
// internal/pool (shared with fpx-serve's batch endpoint); this file keeps
// the harness-local Workers knob and the forEach shim the sweep loops
// call. Every (program, tool) measurement owns a private device, context
// and deterministically-seeded RunContext, so runs are independent and
// the sweep is embarrassingly parallel; workers write results back by
// index, so the assembled slices — and every table and figure derived
// from them — are byte-identical to a serial run.

import (
	"runtime"

	"gpufpx/internal/pool"
)

// Kernels are pre-lowered as they enter the compile cache by the facade
// package's init (bench reaches the tools through gpufpx.Session), so the
// first worker to compile a kernel pays for decode + lowering once and
// every concurrent sweep worker that launches the shared kernel afterwards
// finds a ready direct-threaded program.

// Workers is the degree of parallelism of the harness: the number of
// goroutines every corpus loop fans out over. Zero (the default) means
// GOMAXPROCS. fpx-bench sets it from the -j flag; tests pin it to compare
// schedules.
var Workers int

// forEach runs fn(i) for every i in [0, n), fanned out over the configured
// worker pool. fn must confine its writes to index-i result slots; forEach
// guarantees completion of all calls before returning, and degrades to a
// plain loop at one worker.
func forEach(n int, fn func(int)) {
	w := Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	pool.ForEachN(w, n, fn)
}
