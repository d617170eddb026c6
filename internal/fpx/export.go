package fpx

import (
	"encoding/json"
	"io"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// JSON export of detector and analyzer results, for piping reports into
// dashboards or diffing runs (e.g. precise vs fast-math builds).

// DetectorSchema and AnalyzerSchema are the current major versions of the
// two wire formats. The schema number bumps whenever a field changes
// meaning or layout incompatibly; readers (internal/report, fpx-serve
// clients) must reject majors they do not know instead of zero-filling
// unknown layouts. Reports written before versioning decode with Schema 0
// and are accepted as version 1.
const (
	DetectorSchema = 1
	AnalyzerSchema = 1
	ShadowSchema   = 1
)

// RecordJSON is the serialized form of one exception record.
type RecordJSON struct {
	Exception string `json:"exception"`
	Format    string `json:"format"`
	Kernel    string `json:"kernel"`
	PC        int    `json:"pc"`
	SASS      string `json:"sass"`
	File      string `json:"file,omitempty"`
	Line      int    `json:"line,omitempty"`
}

// wireLoc is a source position as the reports carry it: file and line for
// source-mapped code, both empty (and omitted) for binary-only kernels.
func wireLoc(l sass.SourceLoc) (string, int) {
	if l.IsKnown() {
		return l.File, l.Line
	}
	return "", 0
}

func recordJSON(r Record) RecordJSON {
	out := RecordJSON{
		Exception: r.Exc.String(),
		Format:    r.Fp.String(),
		Kernel:    r.Kernel,
		PC:        r.PC,
		SASS:      r.SASS,
	}
	out.File, out.Line = wireLoc(r.Loc)
	return out
}

// DetectorReportJSON is the full detector report.
type DetectorReportJSON struct {
	Schema            int            `json:"schema"`
	Records           []RecordJSON   `json:"records"`
	Counts            map[string]int `json:"counts"` // e.g. "FP32/NaN": 7
	Severe            int            `json:"severe"`
	DynamicExceptions uint64         `json:"dynamic_exceptions"`
}

// ReportJSON assembles the detector's findings as the versioned wire
// struct, without serializing it.
func (d *Detector) ReportJSON() DetectorReportJSON {
	rep := DetectorReportJSON{
		Schema:            DetectorSchema,
		Counts:            map[string]int{},
		Severe:            d.summary.Severe(),
		DynamicExceptions: d.stats.DynamicExceptions,
	}
	for _, r := range d.records {
		rep.Records = append(rep.Records, recordJSON(r))
	}
	for _, fp := range []fpval.Format{fpval.FP32, fpval.FP64, fpval.FP16, fpval.BF16} {
		for _, exc := range []fpval.Except{fpval.ExcNaN, fpval.ExcInf, fpval.ExcSub, fpval.ExcDiv0} {
			if n := d.summary.Get(fp, exc); n > 0 {
				rep.Counts[fp.String()+"/"+exc.String()] = n
			}
		}
	}
	return rep
}

// WriteJSON serializes the detector's findings.
func (d *Detector) WriteJSON(w io.Writer) error {
	return EncodeReport(w, d.ReportJSON())
}

// EncodeReport writes any report struct in the tools' canonical JSON style
// (two-space indent, trailing newline) so every producer — CLI, facade,
// service — emits byte-identical bytes for the same report.
func EncodeReport(w io.Writer, rep any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// EventJSON is the serialized form of one analyzer flow event.
type EventJSON struct {
	State  string   `json:"state"`
	Kernel string   `json:"kernel"`
	PC     int      `json:"pc"`
	SASS   string   `json:"sass"`
	File   string   `json:"file,omitempty"`
	Line   int      `json:"line,omitempty"`
	Before []string `json:"before,omitempty"`
	After  []string `json:"after"`
}

// FlowSiteJSON is the serialized per-site aggregation.
type FlowSiteJSON struct {
	Kernel string            `json:"kernel"`
	PC     int               `json:"pc"`
	SASS   string            `json:"sass"`
	File   string            `json:"file,omitempty"`
	Line   int               `json:"line,omitempty"`
	Total  uint64            `json:"total"`
	States map[string]uint64 `json:"states"`
}

// AnalyzerReportJSON is the full analyzer report.
type AnalyzerReportJSON struct {
	Schema   int            `json:"schema"`
	Events   []EventJSON    `json:"events"`
	TopFlows []FlowSiteJSON `json:"top_flows"`
	Stats    AnalyzerStats  `json:"stats"`
	States   map[string]int `json:"state_counts"`
}

// classNames renders a class vector for the wire; nil stays nil so the
// "before" field is omitted for post-state-only events.
func classNames(cs []fpval.Class) []string {
	if cs == nil {
		return nil
	}
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

// eventJSON is the serialized form of one flow event — shared by the full
// report assembly and the streaming encoder, so streamed event bytes match
// the report's byte-for-byte.
func eventJSON(ev FlowEvent) EventJSON {
	e := EventJSON{
		State:  ev.State.String(),
		Kernel: ev.Kernel,
		PC:     ev.PC,
		SASS:   ev.SASS,
		Before: classNames(ev.Before),
		After:  classNames(ev.After),
	}
	e.File, e.Line = wireLoc(ev.Loc)
	return e
}

// ReportJSON assembles the analyzer's flow evidence as the versioned wire
// struct, without serializing it.
func (a *Analyzer) ReportJSON() AnalyzerReportJSON {
	rep := AnalyzerReportJSON{
		Schema: AnalyzerSchema,
		Stats:  a.stats,
		States: map[string]int{
			StateAppearance.String():     int(a.stats.Appearances),
			StatePropagation.String():    int(a.stats.Propagations),
			StateDisappearance.String():  int(a.stats.Disappearances),
			StateComparison.String():     int(a.stats.Comparisons),
			StateSharedRegister.String(): int(a.stats.SharedRegister),
		},
	}
	rep.TopFlows = topSitesJSON[FlowState](a.sites, func(s siteJSON) FlowSiteJSON {
		return FlowSiteJSON{s.kernel, s.pc, s.sass, s.file, s.line, s.total, s.counts}
	})
	for _, ev := range a.events {
		rep.Events = append(rep.Events, eventJSON(ev))
	}
	return rep
}

// WriteJSON serializes the analyzer's flow evidence.
func (a *Analyzer) WriteJSON(w io.Writer) error {
	return EncodeReport(w, a.ReportJSON())
}

// FindingJSON is the serialized form of one shadow finding. Real, Shadow and
// RelErr travel as strconv-rendered strings: divergence findings carry
// INF/NaN values, which JSON numbers cannot encode.
type FindingJSON struct {
	Kind     string `json:"kind"`
	Kernel   string `json:"kernel"`
	PC       int    `json:"pc"`
	SASS     string `json:"sass"`
	File     string `json:"file,omitempty"`
	Line     int    `json:"line,omitempty"`
	Lane     int    `json:"lane"`
	Real     string `json:"real"`
	Shadow   string `json:"shadow"`
	RelErr   string `json:"rel_err"`
	LostBits int    `json:"lost_bits"`
}

// findingJSON is the serialized form of one finding — shared by the full
// report assembly and the streaming encoder, so streamed finding bytes match
// the report's byte-for-byte.
func findingJSON(f Finding) FindingJSON {
	out := FindingJSON{
		Kind:     f.Kind.String(),
		Kernel:   f.Kernel,
		PC:       f.PC,
		SASS:     f.SASS,
		Lane:     f.Lane,
		Real:     formatShadowValue(f.Real),
		Shadow:   formatShadowValue(f.Shadow),
		RelErr:   formatShadowValue(f.RelErr),
		LostBits: f.LostBits,
	}
	out.File, out.Line = wireLoc(f.Loc)
	return out
}

// ShadowSiteJSON is the serialized per-site aggregation.
type ShadowSiteJSON struct {
	Kernel string            `json:"kernel"`
	PC     int               `json:"pc"`
	SASS   string            `json:"sass"`
	File   string            `json:"file,omitempty"`
	Line   int               `json:"line,omitempty"`
	Total  uint64            `json:"total"`
	Kinds  map[string]uint64 `json:"kinds"`
}

// ShadowReportJSON is the full shadow-sanitizer report.
type ShadowReportJSON struct {
	Schema   int               `json:"schema"`
	Findings []FindingJSON     `json:"findings"`
	TopSites []ShadowSiteJSON  `json:"top_sites"`
	Stats    ShadowStats       `json:"stats"`
	Kinds    map[string]uint64 `json:"kind_counts"`
}

// ReportJSON assembles the sanitizer's findings as the versioned wire
// struct, without serializing it.
func (sh *Shadow) ReportJSON() ShadowReportJSON {
	rep := ShadowReportJSON{
		Schema: ShadowSchema,
		Stats:  sh.stats,
		Kinds: map[string]uint64{
			KindSignificanceLoss.String(): sh.stats.SignificanceLosses,
			KindCancellation.String():     sh.stats.Cancellations,
			KindDivergence.String():       sh.stats.Divergences,
		},
	}
	rep.TopSites = topSitesJSON[ShadowKind](sh.sites, func(s siteJSON) ShadowSiteJSON {
		return ShadowSiteJSON{s.kernel, s.pc, s.sass, s.file, s.line, s.total, s.counts}
	})
	for _, f := range sh.findings {
		rep.Findings = append(rep.Findings, findingJSON(f))
	}
	return rep
}

// WriteJSON serializes the sanitizer's findings.
func (sh *Shadow) WriteJSON(w io.Writer) error {
	return EncodeReport(w, sh.ReportJSON())
}
