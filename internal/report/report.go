// Package report compares GPU-FPX JSON reports across runs. It is the
// programmatic form of the debugging loop the paper walks through for GMRES
// (§5.2) and SRU (§5.3): run the detector, apply a candidate fix, run again,
// and ask which exception sites disappeared, which persist, and whether the
// fix introduced any new ones.
//
// Records are matched by exception class, numeric format, kernel, and source
// site — deliberately not by PC, because recompiling a fixed kernel shifts
// every instruction address. When source information is unavailable
// (closed-source kernels reporting /unknown_path), the SASS text stands in
// for the site.
package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"gpufpx/internal/fpx"
)

// Key identifies one exception site in a way that is stable across
// recompilation of the kernel.
type Key struct {
	Exception string
	Format    string
	Kernel    string
	// Site is "file:line" for source-mapped records and the SASS text for
	// binary-only kernels.
	Site string
}

// siteOf is a report site's position that survives recompilation:
// "file:line" for source-mapped sites, the SASS text otherwise.
func siteOf(file string, line int, sass string) string {
	if file != "" {
		return fmt.Sprintf("%s:%d", file, line)
	}
	return sass
}

// keyOf derives the match key for a record.
func keyOf(r fpx.RecordJSON) Key {
	return Key{Exception: r.Exception, Format: r.Format, Kernel: r.Kernel, Site: siteOf(r.File, r.Line, r.SASS)}
}

// severe reports whether the record is in one of the categories the paper
// prints in red: NaN, INF and DIV0 (subnormals are warnings).
func severe(r fpx.RecordJSON) bool {
	switch r.Exception {
	case "NaN", "INF", "DIV0":
		return true
	}
	return false
}

// ErrSchema marks a report whose schema major this reader does not speak.
// Decoding a future layout into the current structs would silently
// zero-fill renamed fields; the version gate turns that into a loud error.
var ErrSchema = errors.New("report: unsupported schema version")

// checkSchema accepts the current major and the pre-versioning 0 (legacy
// reports written before the schema field existed decode as 0).
func checkSchema(kind string, got, current int) error {
	if got == 0 || got == current {
		return nil
	}
	return fmt.Errorf("%w: %s report has schema %d, this reader speaks %d (and legacy 0)",
		ErrSchema, kind, got, current)
}

// LoadDetector parses a detector JSON report written by Detector.WriteJSON,
// rejecting unknown schema majors.
func LoadDetector(r io.Reader) (fpx.DetectorReportJSON, error) {
	var rep fpx.DetectorReportJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return rep, fmt.Errorf("report: decoding detector report: %w", err)
	}
	if err := checkSchema("detector", rep.Schema, fpx.DetectorSchema); err != nil {
		return rep, err
	}
	return rep, nil
}

// LoadAnalyzer parses an analyzer JSON report written by Analyzer.WriteJSON,
// rejecting unknown schema majors.
func LoadAnalyzer(r io.Reader) (fpx.AnalyzerReportJSON, error) {
	var rep fpx.AnalyzerReportJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return rep, fmt.Errorf("report: decoding analyzer report: %w", err)
	}
	if err := checkSchema("analyzer", rep.Schema, fpx.AnalyzerSchema); err != nil {
		return rep, err
	}
	return rep, nil
}

// LoadShadow parses a shadow-sanitizer JSON report written by
// Shadow.WriteJSON, rejecting unknown schema majors.
func LoadShadow(r io.Reader) (fpx.ShadowReportJSON, error) {
	var rep fpx.ShadowReportJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return rep, fmt.Errorf("report: decoding shadow report: %w", err)
	}
	if err := checkSchema("shadow", rep.Schema, fpx.ShadowSchema); err != nil {
		return rep, err
	}
	return rep, nil
}

// DetectorDiff is the outcome of comparing two detector runs.
type DetectorDiff struct {
	// Fixed records appeared in the before run only: the fix removed them.
	Fixed []fpx.RecordJSON
	// New records appeared in the after run only: the fix introduced them.
	New []fpx.RecordJSON
	// Persisting records appear in both runs. The after-run copy is kept so
	// PCs reflect the current binary.
	Persisting []fpx.RecordJSON

	// SevereBefore and SevereAfter are the severe-record counts of each run.
	SevereBefore, SevereAfter int
	// DynamicBefore and DynamicAfter are the dynamic (per-occurrence)
	// exception counts of each run.
	DynamicBefore, DynamicAfter uint64
}

// CompareDetector diffs two detector reports.
func CompareDetector(before, after fpx.DetectorReportJSON) DetectorDiff {
	d := DetectorDiff{
		SevereBefore:  before.Severe,
		SevereAfter:   after.Severe,
		DynamicBefore: before.DynamicExceptions,
		DynamicAfter:  after.DynamicExceptions,
	}
	// Both sides may legitimately hold several records per key (two NaN
	// sites on the same source line compile to distinct PCs but one key), so
	// match by multiset: n before vs m after at one key yields min(n,m)
	// persisting, n-m fixed or m-n new.
	prev := make(map[Key]int)
	for _, r := range before.Records {
		prev[keyOf(r)]++
	}
	for _, r := range after.Records {
		k := keyOf(r)
		if prev[k] > 0 {
			prev[k]--
			d.Persisting = append(d.Persisting, r)
		} else {
			d.New = append(d.New, r)
		}
	}
	// Whatever was not consumed by the after run is fixed. Walk the before
	// records in order so the report is deterministic.
	for _, r := range before.Records {
		k := keyOf(r)
		if prev[k] > 0 {
			prev[k]--
			d.Fixed = append(d.Fixed, r)
		}
	}
	sortRecords(d.Fixed)
	sortRecords(d.New)
	sortRecords(d.Persisting)
	return d
}

func sortRecords(rs []fpx.RecordJSON) {
	sort.SliceStable(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		return a.Exception < b.Exception
	})
}

// Clean reports whether the after run is free of regressions and of severe
// leftovers: no new records of any kind, and no persisting severe records.
// Persisting subnormal warnings do not block a clean verdict — matching the
// paper's treatment of subnormals as benign unless they feed a division.
func (d DetectorDiff) Clean() bool {
	if len(d.New) > 0 {
		return false
	}
	for _, r := range d.Persisting {
		if severe(r) {
			return false
		}
	}
	return true
}

// FixedSevere counts severe records the fix removed.
func (d DetectorDiff) FixedSevere() int {
	n := 0
	for _, r := range d.Fixed {
		if severe(r) {
			n++
		}
	}
	return n
}

// WriteText renders the diff in a human-readable form.
func (d DetectorDiff) WriteText(w io.Writer) {
	section := func(title string, rs []fpx.RecordJSON) {
		fmt.Fprintf(w, "%s (%d):\n", title, len(rs))
		for _, r := range rs {
			marker := " "
			if severe(r) {
				marker = "!"
			}
			fmt.Fprintf(w, "  %s %-4s [%s] in [%s] @ %s\n", marker, r.Exception, r.Format, r.Kernel, siteOf(r.File, r.Line, r.SASS))
		}
	}
	section("FIXED", d.Fixed)
	section("NEW", d.New)
	section("PERSISTING", d.Persisting)
	fmt.Fprintf(w, "severe records: %d -> %d; dynamic exceptions: %d -> %d\n",
		d.SevereBefore, d.SevereAfter, d.DynamicBefore, d.DynamicAfter)
	if d.Clean() {
		fmt.Fprintln(w, "verdict: CLEAN (no new records, no persisting severe records)")
	} else {
		fmt.Fprintln(w, "verdict: NOT CLEAN")
	}
}

// AnalyzerDiff is the outcome of comparing two analyzer runs: per-state
// event-count deltas plus the flow sites that appeared or disappeared.
type AnalyzerDiff struct {
	// States maps each flow state name to its (before, after) event counts.
	States map[string][2]int
	// FixedSites are top-flow sites present before but not after.
	FixedSites []fpx.FlowSiteJSON
	// NewSites are top-flow sites present after but not before.
	NewSites []fpx.FlowSiteJSON
}

// flowSite is a flow site's match key and event total.
func flowSite(s fpx.FlowSiteJSON) (Key, uint64) {
	return Key{Kernel: s.Kernel, Site: siteOf(s.File, s.Line, s.SASS)}, s.Total
}

// analyzerText labels the analyzer diff's text rendering.
var analyzerText = diffText{
	counts: "flow-state events", width: 16, sites: "flow sites", unit: "events",
	verdict: "QUIET (no exception flow remains)",
}

// CompareAnalyzer diffs two analyzer reports.
func CompareAnalyzer(before, after fpx.AnalyzerReportJSON) AnalyzerDiff {
	d := AnalyzerDiff{States: diffCounts(before.States, after.States)}
	d.FixedSites, d.NewSites = diffSites(before.TopFlows, after.TopFlows, flowSite)
	return d
}

// Quiet reports whether the after run has no exception-flow activity at all
// — every appearance, propagation, comparison, disappearance and
// shared-register count is zero.
func (d AnalyzerDiff) Quiet() bool { return quiet(d.States) }

// WriteText renders the analyzer diff.
func (d AnalyzerDiff) WriteText(w io.Writer) {
	writeDiff(w, analyzerText, d.States, d.FixedSites, d.NewSites, flowSite)
}

// ShadowDiff is the outcome of comparing two shadow-sanitizer runs: per-kind
// finding-count deltas plus the report sites that appeared or disappeared.
type ShadowDiff struct {
	// Kinds maps each finding kind name to its (before, after) counts.
	Kinds map[string][2]uint64
	// FixedSites are top sites present before but not after.
	FixedSites []fpx.ShadowSiteJSON
	// NewSites are top sites present after but not before.
	NewSites []fpx.ShadowSiteJSON
}

// shadowSite is a shadow site's match key and finding total.
func shadowSite(s fpx.ShadowSiteJSON) (Key, uint64) {
	return Key{Kernel: s.Kernel, Site: siteOf(s.File, s.Line, s.SASS)}, s.Total
}

// shadowText labels the shadow diff's text rendering.
var shadowText = diffText{
	counts: "shadow findings", width: 18, sites: "shadow sites", unit: "findings",
	verdict: "QUIET (no precision loss remains)",
}

// CompareShadow diffs two shadow-sanitizer reports.
func CompareShadow(before, after fpx.ShadowReportJSON) ShadowDiff {
	d := ShadowDiff{Kinds: diffCounts(before.Kinds, after.Kinds)}
	d.FixedSites, d.NewSites = diffSites(before.TopSites, after.TopSites, shadowSite)
	return d
}

// Quiet reports whether the after run has no precision findings at all —
// every significance-loss, cancellation and divergence count is zero.
func (d ShadowDiff) Quiet() bool { return quiet(d.Kinds) }

// WriteText renders the shadow diff.
func (d ShadowDiff) WriteText(w io.Writer) {
	writeDiff(w, shadowText, d.Kinds, d.FixedSites, d.NewSites, shadowSite)
}

// count is a per-category report count: the analyzer's state counts are
// ints, the sanitizer's kind counts uint64s.
type count interface{ ~int | ~uint64 }

// diffCounts pairs each category's before and after counts.
func diffCounts[N count](before, after map[string]N) map[string][2]N {
	d := make(map[string][2]N)
	for k, n := range before {
		c := d[k]
		c[0] = n
		d[k] = c
	}
	for k, n := range after {
		c := d[k]
		c[1] = n
		d[k] = c
	}
	return d
}

// quiet reports whether every category's after count is zero.
func quiet[N count](counts map[string][2]N) bool {
	for _, c := range counts {
		if c[1] != 0 {
			return false
		}
	}
	return true
}

// diffSites matches two runs' top sites by kernel and site: fixed are the
// sites only the before run lists, added those only the after run lists,
// each in its run's order.
func diffSites[S any](before, after []S, key func(S) (Key, uint64)) (fixed, added []S) {
	in := func(ss []S) map[Key]bool {
		m := make(map[Key]bool, len(ss))
		for _, s := range ss {
			k, _ := key(s)
			m[k] = true
		}
		return m
	}
	prev, cur := in(before), in(after)
	for _, s := range after {
		if k, _ := key(s); !prev[k] {
			added = append(added, s)
		}
	}
	for _, s := range before {
		if k, _ := key(s); !cur[k] {
			fixed = append(fixed, s)
		}
	}
	return fixed, added
}

// diffText labels one tool's diff rendering: the count table's title and
// name column width, the site sections' title and total's unit, and the
// verdict printed when the after run is quiet.
type diffText struct {
	counts  string
	width   int
	sites   string
	unit    string
	verdict string
}

// writeDiff renders a count-and-site diff: the count table sorted by
// category name with each change's delta, the fixed and new sites, and the
// quiet verdict.
func writeDiff[N count, S any](w io.Writer, l diffText, counts map[string][2]N, fixed, added []S, key func(S) (Key, uint64)) {
	names := make([]string, 0, len(counts))
	for k := range counts {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s (before -> after):\n", l.counts)
	for _, k := range names {
		c := counts[k]
		delta := ""
		switch {
		case c[1] < c[0]:
			delta = fmt.Sprintf("  (-%d)", c[0]-c[1])
		case c[1] > c[0]:
			delta = fmt.Sprintf("  (+%d)", c[1]-c[0])
		}
		fmt.Fprintf(w, "  %-*s %8d -> %-8d%s\n", l.width, k, c[0], c[1], delta)
	}
	for _, sec := range []struct {
		title string
		sites []S
	}{{"fixed", fixed}, {"new", added}} {
		fmt.Fprintf(w, "%s %s (%d):\n", l.sites, sec.title, len(sec.sites))
		for _, s := range sec.sites {
			k, total := key(s)
			fmt.Fprintf(w, "  [%s] @ %s (%d %s)\n", k.Kernel, k.Site, total, l.unit)
		}
	}
	if quiet(counts) {
		fmt.Fprintln(w, "verdict: "+l.verdict)
	}
}
