package gpufpx

import (
	"errors"
	"fmt"
	"io"

	"gpufpx/internal/cc"
	"gpufpx/internal/device"
	"gpufpx/internal/fault"
	"gpufpx/internal/fpx"
	"gpufpx/internal/progs"
	"gpufpx/internal/report"
)

// The wire and configuration types of the public API are aliases of the
// internal definitions: one set of structs serves the tools, the facade and
// the service, so the facade can never drift from what the tools emit. The
// alias names are the public schema; the internal packages stay free to
// grow unexported machinery behind them.
type (
	// DetectorConfig configures the GPU-FPX detector (Detector).
	DetectorConfig = fpx.DetectorConfig
	// AnalyzerConfig configures the exception-flow analyzer (Analyzer).
	AnalyzerConfig = fpx.AnalyzerConfig
	// ShadowConfig configures the shadow-precision sanitizer (Shadow).
	ShadowConfig = fpx.ShadowConfig
	// CompileOptions are the kernel-compiler flags (WithCompile).
	CompileOptions = cc.Options
	// Arch selects the division expansion of the simulated GPU.
	Arch = cc.Arch
	// DeviceConfig is the simulated device cost model (WithDeviceConfig).
	DeviceConfig = device.Config

	// DetectorReport is the versioned detector wire schema.
	DetectorReport = fpx.DetectorReportJSON
	// AnalyzerReport is the versioned analyzer wire schema.
	AnalyzerReport = fpx.AnalyzerReportJSON
	// ShadowReport is the versioned shadow-sanitizer wire schema.
	ShadowReport = fpx.ShadowReportJSON
	// FindingJSON is one serialized shadow finding.
	FindingJSON = fpx.FindingJSON
	// ShadowFinding is one typed (unserialized) shadow finding.
	ShadowFinding = fpx.Finding
	// RecordJSON is one serialized exception record.
	RecordJSON = fpx.RecordJSON
	// ExceptionRecord is one typed (unserialized) detector record.
	ExceptionRecord = fpx.Record
	// Summary counts unique exception records per format and category.
	Summary = fpx.Summary

	// DetectorDiff compares two detector reports (fpx-diff).
	DetectorDiff = report.DetectorDiff
	// AnalyzerDiff compares two analyzer reports.
	AnalyzerDiff = report.AnalyzerDiff
	// ShadowDiff compares two shadow-sanitizer reports.
	ShadowDiff = report.ShadowDiff

	// FaultPlan drives the deterministic fault-injection planes (WithFaults).
	FaultPlan = fault.Plan
	// FaultPlane is the bitmask of injection planes in a FaultPlan.
	FaultPlane = fault.Plane
	// FaultEvent is one injected fault, as recorded in Report.Faults.
	FaultEvent = fault.Event
)

// Fault-injection planes (FaultPlan.Planes).
const (
	FaultPlaneDevice  = fault.PlaneDevice
	FaultPlaneChannel = fault.PlaneChannel
	FaultPlaneService = fault.PlaneService
	FaultAllPlanes    = fault.AllPlanes
)

// DefaultFaultPlan returns the chaos-mode default plan for a seed: all
// planes, at a rate that injects a handful of faults per corpus program.
func DefaultFaultPlan(seed uint64) FaultPlan { return fault.DefaultPlan(seed) }

// Division-expansion architectures (CompileOptions.Arch).
const (
	ArchAmpere = cc.Ampere
	ArchTuring = cc.Turing
)

// Current wire-schema majors; reports carry them in their "schema" field.
const (
	DetectorSchemaVersion = fpx.DetectorSchema
	AnalyzerSchemaVersion = fpx.AnalyzerSchema
	ShadowSchemaVersion   = fpx.ShadowSchema
)

// ErrSchema marks a report whose schema major this build does not speak.
var ErrSchema = report.ErrSchema

// DefaultDetectorConfig returns the evaluation detector configuration.
func DefaultDetectorConfig() DetectorConfig { return fpx.DefaultDetectorConfig() }

// DefaultAnalyzerConfig returns the evaluation analyzer configuration.
func DefaultAnalyzerConfig() AnalyzerConfig { return fpx.DefaultAnalyzerConfig() }

// DefaultShadowConfig returns the default shadow-sanitizer configuration.
func DefaultShadowConfig() ShadowConfig { return fpx.DefaultShadowConfig() }

// DefaultDeviceConfig returns the stock device cost model.
func DefaultDeviceConfig() DeviceConfig { return device.DefaultConfig() }

// ParseExecMode accepts only "fused", the one executor every run uses.
//
// Deprecated: there is no executor to choose. ParseExecMode and
// SetDefaultExecMode remain only for the repository benchmark's existing
// calls.
func ParseExecMode(s string) (string, error) {
	if s != "fused" {
		return "", fmt.Errorf("unknown exec mode %q (only fused remains)", s)
	}
	return s, nil
}

// SetDefaultExecMode does nothing.
//
// Deprecated: see ParseExecMode.
func SetDefaultExecMode(string) {}

// Report is the outcome of one Session.Run.
type Report struct {
	// Tool names the instrumentation that ran: "detector", "analyzer",
	// "shadow", "binfpe", "memcheck" or "plain".
	Tool string
	// Cycles is the total simulated device runtime.
	Cycles uint64
	// Launches counts completed kernel launches.
	Launches int
	// MaxKernelLaunches is the launch count of the most-launched kernel —
	// the per-kernel bound sampling-saturation arguments reason about,
	// since freq-redn-factor counts invocations per kernel.
	MaxKernelLaunches int

	// Detector is the versioned detector report; nil for other tools.
	Detector *DetectorReport
	// Analyzer is the versioned analyzer report; nil for other tools.
	Analyzer *AnalyzerReport
	// Shadow is the versioned shadow-sanitizer report; nil for other tools.
	Shadow *ShadowReport
	// Records are the typed detector records (detector sessions only).
	Records []ExceptionRecord
	// Summary is the detector's unique-record counts (detector sessions
	// only).
	Summary Summary

	// Faults lists the faults injected into this run, in injection order;
	// empty without WithFaults. Two runs of the same source under the same
	// seed list byte-identical events.
	Faults []FaultEvent

	// OutputDigest fingerprints the run's final global-memory contents.
	// Populated only for campaign runs (Session.Profile), where trials are
	// classified as silent data corruption by comparing it against the
	// golden run's digest; zero otherwise.
	OutputDigest uint64
}

// WriteJSON serializes the run's wire report — detector, analyzer or
// shadow — in the canonical two-space-indented format every producer emits.
func (r *Report) WriteJSON(w io.Writer) error {
	switch {
	case r.Detector != nil:
		return fpx.EncodeReport(w, r.Detector)
	case r.Analyzer != nil:
		return fpx.EncodeReport(w, r.Analyzer)
	case r.Shadow != nil:
		return fpx.EncodeReport(w, r.Shadow)
	}
	return &Error{Kind: KindBadSource, Op: "write report", Err: errors.New("tool " + r.Tool + " has no JSON report")}
}

// LoadDetectorReport parses a detector JSON report, rejecting unknown
// schema majors with ErrSchema.
func LoadDetectorReport(r io.Reader) (DetectorReport, error) { return report.LoadDetector(r) }

// LoadAnalyzerReport parses an analyzer JSON report, rejecting unknown
// schema majors with ErrSchema.
func LoadAnalyzerReport(r io.Reader) (AnalyzerReport, error) { return report.LoadAnalyzer(r) }

// CompareDetectorReports diffs two detector reports — the §5.2/§5.3
// detect → fix → re-run loop.
func CompareDetectorReports(before, after DetectorReport) DetectorDiff {
	return report.CompareDetector(before, after)
}

// CompareAnalyzerReports diffs two analyzer reports.
func CompareAnalyzerReports(before, after AnalyzerReport) AnalyzerDiff {
	return report.CompareAnalyzer(before, after)
}

// LoadShadowReport parses a shadow-sanitizer JSON report, rejecting unknown
// schema majors with ErrSchema.
func LoadShadowReport(r io.Reader) (ShadowReport, error) { return report.LoadShadow(r) }

// CompareShadowReports diffs two shadow-sanitizer reports.
func CompareShadowReports(before, after ShadowReport) ShadowDiff {
	return report.CompareShadow(before, after)
}

// ProgramInfo describes one corpus program.
type ProgramInfo struct {
	// Name runs the program via Program(Name).
	Name string
	// Suite is the benchmark suite the program belongs to.
	Suite string
	// Table7 marks programs carrying the paper's Table 7 diagnosis.
	Table7 bool
	// Meaningless marks programs whose exceptions the paper excludes as
	// not meaningful (footnote 8).
	Meaningless bool
	// HasFixed reports whether a repaired variant exists (FixedProgram).
	HasFixed bool
}

// Programs lists the corpus inventory in registration order.
func Programs() []ProgramInfo {
	all := progs.All()
	out := make([]ProgramInfo, len(all))
	for i, p := range all {
		out[i] = ProgramInfo{
			Name:        p.Name,
			Suite:       p.Suite,
			Table7:      p.Diag != nil,
			Meaningless: p.Meaningless,
			HasFixed:    p.FixedRun != nil,
		}
	}
	return out
}

// PrecisionPrograms lists the shadow-sanitizer precision suite — kernels
// that are IEEE-clean (the detector and analyzer report nothing) but whose
// numerics the shadow tool flags. They are not part of the 151-program
// paper corpus; run them by name like any other program.
func PrecisionPrograms() []ProgramInfo {
	all := progs.Precision()
	out := make([]ProgramInfo, len(all))
	for i, p := range all {
		out[i] = ProgramInfo{Name: p.Name, Suite: p.Suite}
	}
	return out
}

// Suites lists the corpus suites in registration order (the order the
// paper's Table 3 presents them, and the order fpx-run -list prints).
func Suites() []string { return progs.Suites() }

// ProgramsBySuite lists one suite's programs in registration order.
func ProgramsBySuite(suite string) []ProgramInfo {
	var out []ProgramInfo
	for _, p := range Programs() {
		if p.Suite == suite {
			out = append(out, p)
		}
	}
	return out
}
