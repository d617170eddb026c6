package gpufpx

import (
	"gpufpx/internal/cc"
	"gpufpx/internal/device"
	"gpufpx/internal/fpx"
)

// HarnessStats snapshots the process-wide shared-cache and lowering
// counters: the compile cache every session hits, the executor's
// kernel-lowering statistics, and the instrumentation-lowering site counts.
// fpx-bench records them in its perf records; fpx-serve exports them on
// /metrics.
type HarnessStats struct {
	// CompileCacheHits and CompileCacheMisses count content-keyed compile
	// cache lookups.
	CompileCacheHits, CompileCacheMisses uint64
	// LoweredKernels and LoweredInstrs count kernels and instructions
	// lowered into direct-threaded programs.
	LoweredKernels, LoweredInstrs uint64
	// UniformSites and NopSites count lowering specializations.
	UniformSites, NopSites uint64
	// AnalyzerSites, AnalyzerUniformSites and AnalyzerConstOperands count
	// compiled analyzer instrumentation sites and their specializations;
	// DetectorSites counts compiled detector check sites and ShadowSites
	// compiled shadow-sanitizer site programs.
	AnalyzerSites, AnalyzerUniformSites, AnalyzerConstOperands, DetectorSites, ShadowSites uint64
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
	s.UniformSites, s.NopSites = ls.UniformSites, ls.NopSites
	ss := fpx.SiteStatsSnapshot()
	s.AnalyzerSites, s.AnalyzerUniformSites = ss.AnalyzerSites, ss.AnalyzerUniformSites
	s.AnalyzerConstOperands, s.DetectorSites = ss.AnalyzerConstOperands, ss.DetectorSites
	s.ShadowSites = ss.ShadowSites
	fs := device.FuseStatsSnapshot()
	s.FusedKernels, s.FusedRegions, s.FusedInstrs = fs.Kernels, fs.Regions, fs.FusedInstrs
	return s
}
