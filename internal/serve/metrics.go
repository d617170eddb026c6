package serve

// Service counters and the /metrics endpoint: Prometheus text exposition,
// hand-rolled (stdlib only). Alongside the admission counters it exports
// the harness-wide cache and lowering statistics, so an operator can watch
// the shared compile cache amortize across a fleet of jobs.

import (
	"fmt"
	"net/http"
	"sync/atomic"

	"gpufpx/internal/fault"
	"gpufpx/pkg/gpufpx"
)

// metrics are the service's own counters; queue depth is read live off the
// channel.
type metrics struct {
	accepted         atomic.Uint64
	rejectedFull     atomic.Uint64
	rejectedDraining atomic.Uint64
	completed        atomic.Uint64
	failed           atomic.Uint64
	internalErrors   atomic.Uint64
	running          atomic.Int64

	batches        atomic.Uint64
	batchItems     atomic.Uint64
	itemsCompleted atomic.Uint64
	itemsFailed    atomic.Uint64
	streams        atomic.Uint64

	profiles          atomic.Uint64
	profilesCompleted atomic.Uint64
	profilesFailed    atomic.Uint64
}

// handleMetrics writes the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	gauge := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	counter("gpufpx_serve_jobs_accepted_total", "Jobs admitted to the queue.", s.m.accepted.Load())
	counter("gpufpx_serve_jobs_rejected_full_total", "Jobs rejected with 429 (queue full).", s.m.rejectedFull.Load())
	counter("gpufpx_serve_jobs_rejected_draining_total", "Jobs rejected with 503 (draining).", s.m.rejectedDraining.Load())
	counter("gpufpx_serve_jobs_completed_total", "Jobs finished cleanly.", s.m.completed.Load())
	counter("gpufpx_serve_jobs_failed_total", "Jobs finished with an error (hang, budget, compile, ...).", s.m.failed.Load())
	counter("gpufpx_serve_internal_errors_total", "Jobs that failed with an internal error (recovered panics included).", s.m.internalErrors.Load())
	counter("gpufpx_serve_batches_accepted_total", "Batch jobs admitted to the queue.", s.m.batches.Load())
	counter("gpufpx_serve_batch_items_total", "Batch items admitted (across all batches).", s.m.batchItems.Load())
	counter("gpufpx_serve_batch_items_completed_total", "Batch items finished cleanly.", s.m.itemsCompleted.Load())
	counter("gpufpx_serve_batch_items_failed_total", "Batch items finished with an error.", s.m.itemsFailed.Load())
	counter("gpufpx_serve_streams_total", "Streaming (ndjson) responses served.", s.m.streams.Load())
	counter("gpufpx_serve_profiles_accepted_total", "Vulnerability-profiling campaigns admitted.", s.m.profiles.Load())
	counter("gpufpx_serve_profiles_completed_total", "Campaigns finished cleanly.", s.m.profilesCompleted.Load())
	counter("gpufpx_serve_profiles_failed_total", "Campaigns finished with an error (canceled drains included).", s.m.profilesFailed.Load())
	gauge("gpufpx_serve_jobs_running", "Jobs currently on a worker.", s.m.running.Load())
	gauge("gpufpx_serve_queue_depth", "Jobs waiting in the queue.", len(s.queue))
	gauge("gpufpx_serve_queue_cap", "Bound of the job queue.", s.cfg.QueueDepth)

	hs := gpufpx.Stats()
	counter("gpufpx_compile_cache_hits_total", "Content-keyed compile cache hits.", hs.CompileCacheHits)
	counter("gpufpx_compile_cache_misses_total", "Content-keyed compile cache misses.", hs.CompileCacheMisses)
	counter("gpufpx_lowered_kernels_total", "Kernels lowered to direct-threaded programs.", hs.LoweredKernels)
	counter("gpufpx_lowered_instrs_total", "Instructions lowered.", hs.LoweredInstrs)
	counter("gpufpx_detector_sites_total", "Compiled detector check sites.", hs.DetectorSites)
	counter("gpufpx_analyzer_sites_total", "Compiled analyzer instrumentation sites.", hs.AnalyzerSites)
	counter("gpufpx_shadow_sites_total", "Compiled shadow-sanitizer site programs.", hs.ShadowSites)
	counter("gpufpx_fused_kernels_total", "Kernels fused into superinstruction programs.", hs.FusedKernels)
	counter("gpufpx_fused_regions_total", "Superinstruction regions built by the fusion pass.", hs.FusedRegions)
	counter("gpufpx_fused_instrs_total", "Instructions covered by fused regions.", hs.FusedInstrs)
	counter("gpufpx_fused_chain_ops_total", "Fused instructions compiled into lane-major chain micro-ops.", hs.FusedChainOps)

	fd, fc, fs := fault.Counters()
	counter("gpufpx_fault_injected_device_total", "Injected device-plane faults (bit flips).", fd)
	counter("gpufpx_fault_injected_channel_total", "Injected channel-plane faults (drop/dup/truncate).", fc)
	counter("gpufpx_fault_injected_service_total", "Injected service-plane faults (panic/stall/slowcompile).", fs)
}
