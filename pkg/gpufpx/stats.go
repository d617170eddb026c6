package gpufpx

import (
	"gpufpx/internal/cc"
	"gpufpx/internal/device"
	"gpufpx/internal/fpx"
)

// HarnessStats snapshots the process-wide shared-cache and lowering
// counters: the compile cache every session hits, the executor's
// kernel-lowering statistics, and the instrumentation-lowering site counts.
// fpx-serve exports them on /metrics.
type HarnessStats struct {
	// CompileCacheHits and CompileCacheMisses count content-keyed compile
	// cache lookups.
	CompileCacheHits, CompileCacheMisses uint64
	// LoweredKernels and LoweredInstrs count kernels and instructions
	// lowered into direct-threaded programs.
	LoweredKernels, LoweredInstrs uint64
	// AnalyzerSites counts compiled analyzer instrumentation sites,
	// DetectorSites compiled detector check sites and ShadowSites compiled
	// shadow-sanitizer site programs.
	AnalyzerSites, DetectorSites, ShadowSites uint64
	// FusedKernels and FusedRegions count kernels and superinstruction
	// regions built by the fusion pass; FusedInstrs is the instruction count
	// covered by fused regions.
	FusedKernels, FusedRegions, FusedInstrs uint64
}

// Stats returns the current shared-cache and lowering counters.
func Stats() HarnessStats {
	var s HarnessStats
	s.CompileCacheHits, s.CompileCacheMisses = cc.CacheStats()
	ls := device.LowerStatsSnapshot()
	s.LoweredKernels, s.LoweredInstrs = ls.Kernels, ls.Instrs
	ss := fpx.SiteStatsSnapshot()
	s.AnalyzerSites, s.DetectorSites, s.ShadowSites = ss.AnalyzerSites, ss.DetectorSites, ss.ShadowSites
	fs := device.FuseStatsSnapshot()
	s.FusedKernels, s.FusedRegions, s.FusedInstrs = fs.Kernels, fs.Regions, fs.FusedInstrs
	return s
}
