package fpx

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"gpufpx/internal/sass"
)

// This file holds the per-location machinery the three tools share: the
// Algorithm 3 launch filter, the analyzer's and the shadow sanitizer's
// per-location tally with its ranking, listing and wire form, the per-warp
// scratch pools and the process-wide site counters.

// launchFilter is Algorithm 3's launch filter: a kernel is instrumented when
// the whitelist (user_specified_kernels; empty admits every kernel) names
// it, on one in freq of its invocations (freq-redn-factor; 0 or 1 admits
// every invocation).
type launchFilter struct {
	white map[string]bool
	freq  int
}

func newLaunchFilter(whitelist []string, freq int) launchFilter {
	f := launchFilter{freq: freq}
	if len(whitelist) > 0 {
		f.white = make(map[string]bool, len(whitelist))
		for _, n := range whitelist {
			f.white[n] = true
		}
	}
	return f
}

// admit reports whether this invocation of k is instrumented.
func (f launchFilter) admit(k *sass.Kernel, invocation int) bool {
	if f.white != nil && !f.white[k.Name] {
		return false
	}
	return f.freq <= 1 || invocation%f.freq == 0
}

// locCounts aggregates one instruction location: per-category dynamic
// counts (indexed by FlowState or ShadowKind, uncapped) and the emitted
// count the per-location report cap reads. Sites from different kernels
// that share a ⟨kernel name, pc⟩ location share one locCounts. The first
// emitted report names the location's SASS text and source position.
type locCounts struct {
	n       [5]uint64
	emitted int
	sass    string
	loc     sass.SourceLoc
}

// emit counts one report about to be emitted at the location.
func (c *locCounts) emit(sassText string, loc sass.SourceLoc) {
	if c.emitted == 0 {
		c.sass, c.loc = sassText, loc
	}
	c.emitted++
}

// siteTally holds one tool's per-location counts; entries are created at
// Instrument time.
type siteTally map[locKey]*locCounts

// at returns the location's counts, creating them on first use.
func (t siteTally) at(kernel string, pc int) *locCounts {
	lk := locKey{kernel, pc}
	c, ok := t[lk]
	if !ok {
		c = &locCounts{}
		t[lk] = c
	}
	return c
}

// rankedSite is one location of the tally's ranking.
type rankedSite struct {
	locKey
	*locCounts
	total uint64
}

// top ranks the locations that counted anything, most active first: total
// descending, then kernel, then PC. A positive limit keeps that many.
func (t siteTally) top(limit int) []rankedSite {
	var out []rankedSite
	for lk, c := range t {
		var total uint64
		for _, n := range c.n {
			total += n
		}
		if total > 0 {
			out = append(out, rankedSite{lk, c, total})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.total != b.total {
			return a.total > b.total
		}
		if a.kernel != b.kernel {
			return a.kernel < b.kernel
		}
		return a.pc < b.pc
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// category is a tool's per-location count index: FlowState or ShadowKind.
type category interface {
	~uint8
	String() string
}

// byCategory returns a location's nonzero counts keyed by category.
func byCategory[C category](c *locCounts) map[C]uint64 {
	m := make(map[C]uint64)
	for i, n := range c.n {
		if n > 0 {
			m[C(i)] = n
		}
	}
	return m
}

// writeHottest prints the eight most active locations under header, naming
// each location's nonzero categories in the given order.
func writeHottest[C category](w io.Writer, t siteTally, header string, order ...C) {
	top := t.top(8)
	if len(top) == 0 {
		return
	}
	fmt.Fprintln(w, header)
	for _, s := range top {
		fmt.Fprintf(w, "  %6d  @ %s in [%s]:%d  %s ", s.total, s.loc, s.kernel, s.pc, s.sass)
		sep := ""
		for _, c := range order {
			if n := s.n[c]; n > 0 {
				fmt.Fprintf(w, "%s%s x%d", sep, c, n)
				sep = ", "
			}
		}
		fmt.Fprintln(w)
	}
}

// siteJSON is the wire form of one ranked location, field for field the
// analyzer's FlowSiteJSON and the sanitizer's ShadowSiteJSON apart from the
// counts field's name.
type siteJSON struct {
	kernel     string
	pc         int
	sass, file string
	line       int
	total      uint64
	counts     map[string]uint64
}

// topSitesJSON renders the 16 most active locations for a JSON report; mk
// builds the tool's wire struct.
func topSitesJSON[C category, S any](t siteTally, mk func(siteJSON) S) []S {
	var out []S
	for _, s := range t.top(16) {
		js := siteJSON{kernel: s.kernel, pc: s.pc, sass: s.sass, total: s.total, counts: map[string]uint64{}}
		js.file, js.line = wireLoc(s.loc)
		for i, n := range s.n {
			if n > 0 {
				js.counts[C(i).String()] = n
			}
		}
		out = append(out, mk(js))
	}
	return out
}

// warpSlots is a per-warp scratch pool, indexed by warp in block and reused
// across instructions and launches like the executor's warp pool.
type warpSlots[T any] []T

// at returns warp w's slot, growing the pool on first contact with a deeper
// block shape.
func (p *warpSlots[T]) at(w int) *T {
	if w >= len(*p) {
		grown := make(warpSlots[T], w+1)
		copy(grown, *p)
		*p = grown
	}
	return &(*p)[w]
}

// Process-wide instrumentation-lowering counters, the tool-layer mirror of
// device.LowerStats; fpx-serve exports them on /metrics.
var (
	anaSites    atomic.Uint64
	detSites    atomic.Uint64
	shadowSites atomic.Uint64
)

// SiteStats is a snapshot of the instrumentation-lowering counters.
type SiteStats struct {
	// AnalyzerSites counts compiled analyzer site programs.
	AnalyzerSites uint64
	// DetectorSites counts installed detector check sites.
	DetectorSites uint64
	// ShadowSites counts compiled shadow-sanitizer site programs.
	ShadowSites uint64
}

// SiteStatsSnapshot returns the current instrumentation-lowering counters.
func SiteStatsSnapshot() SiteStats {
	return SiteStats{
		AnalyzerSites: anaSites.Load(),
		DetectorSites: detSites.Load(),
		ShadowSites:   shadowSites.Load(),
	}
}
