// Package gpufpx is the public facade of the GPU-FPX reproduction: one
// stable API over the internal simulator, compiler, instrumentation
// framework and exception tools. A Session bundles one typed tool selection
// (detector, analyzer, shadow-precision sanitizer, BinFPE baseline, memory
// checker, or plain), compiler and device knobs, and runs sources — corpus
// programs, raw SASS text, or pre-parsed kernels — returning versioned
// JSON-ready reports.
//
//	s := gpufpx.New(gpufpx.WithTool(gpufpx.Analyzer(gpufpx.DefaultAnalyzerConfig())))
//	rep, err := s.Run(ctx, gpufpx.Program("GRAMSCHM"))
//	rep.WriteJSON(os.Stdout)
//
// Every consumer in this repository — fpx-run, fpx-bench, fpx-stress,
// fpx-diff, and the fpx-serve HTTP service — programs against this package;
// the internal packages stay free to refactor behind it.
package gpufpx

import (
	"context"
	"errors"
	"io"

	"gpufpx/internal/binfpe"
	"gpufpx/internal/cc"
	"gpufpx/internal/cuda"
	"gpufpx/internal/device"
	"gpufpx/internal/fault"
	"gpufpx/internal/fpx"
	"gpufpx/internal/memcheck"
	"gpufpx/internal/progs"
)

func init() {
	// Pre-lower kernels as they enter the shared compile cache, so every
	// consumer of the facade — sweep workers, serve jobs, one-shot CLI
	// runs — receives kernels whose programs are already built.
	cc.OnCompile(device.Prelower)
}

// toolKind selects the instrumentation a session attaches.
type toolKind int

const (
	toolDetector toolKind = iota
	toolAnalyzer
	toolShadow
	toolBinFPE
	toolMemcheck
	toolPlain
)

// String names the tool for reports and wire payloads.
func (t toolKind) String() string {
	switch t {
	case toolAnalyzer:
		return "analyzer"
	case toolShadow:
		return "shadow"
	case toolBinFPE:
		return "binfpe"
	case toolMemcheck:
		return "memcheck"
	case toolPlain:
		return "plain"
	default:
		return "detector"
	}
}

// Tool is a typed tool selection: which instrumentation a session attaches,
// together with that tool's configuration. Build one with the constructors —
// Detector, Analyzer, Shadow, BinFPE, Memcheck, Plain — and select it with
// WithTool. The zero Tool selects the detector with the evaluation defaults.
type Tool struct {
	kind   toolKind
	detCfg DetectorConfig
	anaCfg AnalyzerConfig
	shaCfg ShadowConfig
	hasCfg bool
}

// Name reports the tool's wire name: "detector", "analyzer", "shadow",
// "binfpe", "memcheck" or "plain".
func (t Tool) Name() string { return t.kind.String() }

// Detector selects the GPU-FPX exception detector.
func Detector(cfg DetectorConfig) Tool {
	return Tool{kind: toolDetector, detCfg: cfg, hasCfg: true}
}

// Analyzer selects the exception-flow analyzer.
func Analyzer(cfg AnalyzerConfig) Tool {
	return Tool{kind: toolAnalyzer, anaCfg: cfg, hasCfg: true}
}

// Shadow selects the shadow-precision numerical sanitizer: every FP32/FP16
// arithmetic instruction also executes in an FP64 shadow register file, and
// sites whose real result drifts from the shadow — significance loss,
// catastrophic cancellation, shadow/real divergence — are reported even when
// no IEEE exception ever fires.
func Shadow(cfg ShadowConfig) Tool {
	return Tool{kind: toolShadow, shaCfg: cfg, hasCfg: true}
}

// BinFPE selects the BinFPE baseline tool.
func BinFPE() Tool { return Tool{kind: toolBinFPE} }

// Memcheck selects the out-of-bounds memory checker.
func Memcheck() Tool { return Tool{kind: toolMemcheck} }

// Plain runs uninstrumented — the slowdown baseline.
func Plain() Tool { return Tool{kind: toolPlain} }

// ParseTool maps a wire/CLI tool name to its Tool with default configuration.
func ParseTool(name string) (Tool, error) {
	switch name {
	case "", "detector":
		return Detector(fpx.DefaultDetectorConfig()), nil
	case "analyzer":
		return Analyzer(fpx.DefaultAnalyzerConfig()), nil
	case "shadow":
		return Shadow(fpx.DefaultShadowConfig()), nil
	case "binfpe":
		return BinFPE(), nil
	case "memcheck":
		return Memcheck(), nil
	case "plain":
		return Plain(), nil
	}
	return Tool{}, errors.New("unknown tool " + name + " (want detector, analyzer, shadow, binfpe, memcheck or plain)")
}

// ToolNames lists the valid WithTool/ParseTool selections in wire order.
func ToolNames() []string {
	return []string{"detector", "analyzer", "shadow", "binfpe", "memcheck", "plain"}
}

// Session is an immutable bundle of tool, compiler and device configuration.
// Build one with New and run any number of sources; each Run gets a private
// device and context, so sessions are safe for concurrent Runs (fpx-serve's
// worker pool runs many at once). Compilation hits the process-wide
// compile cache; each kernel's program is built once and shared.
type Session struct {
	tool   toolKind
	detCfg DetectorConfig
	anaCfg AnalyzerConfig
	shaCfg ShadowConfig

	compile CompileOptions

	devCfg    DeviceConfig
	hasDevCfg bool

	budget uint64
	faults FaultPlan
	camp   CampaignConfig

	white      []string
	freq       int
	hasFreq    bool
	output     io.Writer
	hasOutput  bool
	verbose    bool
	hasVerbose bool
}

// Option configures a Session.
type Option func(*Session)

// WithTool selects the session's instrumentation from a typed Tool value.
// This is the one tool-selection surface: every tool — detector, analyzer,
// shadow sanitizer, BinFPE, memcheck, plain — is a Tool constructor, so the
// selection and its configuration travel together and cannot conflict.
// When several WithTool options are given, the last one wins, in option
// order.
func WithTool(t Tool) Option {
	return func(s *Session) {
		s.tool = t.kind
		if !t.hasCfg {
			return
		}
		switch t.kind {
		case toolDetector:
			s.detCfg = t.detCfg
		case toolAnalyzer:
			s.anaCfg = t.anaCfg
		case toolShadow:
			s.shaCfg = t.shaCfg
		}
	}
}

// WithCompile sets the compiler options (fast math, FP64 demotion, Turing
// or Ampere division expansion) for corpus-program sources.
func WithCompile(opts CompileOptions) Option {
	return func(s *Session) { s.compile = opts }
}

// WithDeviceConfig overrides the simulated device's cost model (channel
// capacity, drain rate, hang budget). The default is the stock model.
func WithDeviceConfig(cfg DeviceConfig) Option {
	return func(s *Session) { s.devCfg = cfg; s.hasDevCfg = true }
}

// WithKernelWhitelist restricts instrumentation to the named kernels
// (Algorithm 3's user-specified list). Applies to the detector and
// analyzer.
func WithKernelWhitelist(kernels ...string) Option {
	return func(s *Session) { s.white = kernels }
}

// WithFreq sets the freq-redn-factor k: each kernel is instrumented on one
// in k of its invocations (0 instruments all).
func WithFreq(k int) Option {
	return func(s *Session) { s.freq = k; s.hasFreq = true }
}

// WithCycleBudget caps every launch at n dynamic instructions; exceeding it
// fails the run with KindBudget. This is the deterministic per-job timeout
// of fpx-serve: simulated work is bounded by construction, not wall clock.
func WithCycleBudget(n uint64) Option { return func(s *Session) { s.budget = n } }

// WithFaults enables the deterministic fault-injection planes for every run
// of this session (chaos mode). The device and channel planes attach to the
// run's private device; the injected events are returned in Report.Faults.
// The zero plan injects nothing.
func WithFaults(plan FaultPlan) Option { return func(s *Session) { s.faults = plan } }

// WithOutput streams the tool's textual report (and verbose records) to w.
// The default discards text; JSON reports are always available from Run.
func WithOutput(w io.Writer) Option {
	return func(s *Session) { s.output = w; s.hasOutput = true }
}

// WithVerbose streams each new exception record as it arrives (detector
// only — the early-notification behaviour).
func WithVerbose(v bool) Option {
	return func(s *Session) { s.verbose = v; s.hasVerbose = true }
}

// New builds a session. The zero configuration runs the detector with the
// evaluation defaults and discards textual output.
func New(opts ...Option) *Session {
	s := &Session{
		detCfg: fpx.DefaultDetectorConfig(),
		anaCfg: fpx.DefaultAnalyzerConfig(),
		shaCfg: fpx.DefaultShadowConfig(),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Active is a started session run: a live device, context and attached
// tool. Sources launch through it; custom drivers (fpx-stress) can launch
// kernels directly on Ctx before calling Finish.
type Active struct {
	// Ctx is the live CUDA context. In-module consumers with bespoke
	// launch sequences drive it directly.
	Ctx *cuda.Context

	tool toolKind
	det  *fpx.Detector
	ana  *fpx.Analyzer
	sha  *fpx.Shadow

	compile CompileOptions

	// inj is the run's fault injector; nil when faults are off.
	inj *fault.Injector

	// digest marks campaign runs: Finish fingerprints output memory into
	// Report.OutputDigest.
	digest bool
}

// Start builds the device, context and tool of one run. Most callers use
// Run; Start/Finish is the escape hatch for custom launch sequences. Note
// that Start bypasses Run's recover barrier and cancellation: device faults
// panic through to the caller, matching the bare-harness behaviour.
func (s *Session) Start() *Active {
	return s.start(fault.NewInjector(s.faults, "session"), nil)
}

// start builds a run with an explicit fault injector (nil for none) and an
// optional campaign plane (a fault.Census or fault.TargetedInjector), which
// also flags the run for output digesting. Fault planes that strike the
// device are interceptors registered after the tool, so their injected
// calls run last at a shared PC and every launch stays on the production
// executor.
func (s *Session) start(inj *fault.Injector, plane cuda.Interceptor) *Active {
	var dev *device.Device
	if s.hasDevCfg {
		dev = device.New(s.devCfg)
	} else {
		dev = device.New(device.DefaultConfig())
	}
	if ci := inj.Channel(); ci != nil {
		dev.FilterPackets(ci.Filter)
	}
	ctx := cuda.NewContextOn(dev)
	ctx.MaxDynInstr = s.budget

	a := &Active{Ctx: ctx, tool: s.tool, compile: s.compile, inj: inj, digest: plane != nil}
	switch s.tool {
	case toolDetector:
		cfg := s.detCfg
		s.applyShared(&cfg.Whitelist, &cfg.FreqRednFactor, &cfg.Output)
		if s.hasVerbose {
			cfg.Verbose = s.verbose
		}
		a.det = fpx.AttachDetector(ctx, cfg)
	case toolAnalyzer:
		cfg := s.anaCfg
		s.applyShared(&cfg.Whitelist, &cfg.FreqRednFactor, &cfg.Output)
		a.ana = fpx.AttachAnalyzer(ctx, cfg)
	case toolShadow:
		cfg := s.shaCfg
		s.applyShared(&cfg.Whitelist, &cfg.FreqRednFactor, &cfg.Output)
		a.sha = fpx.AttachShadow(ctx, cfg)
	case toolBinFPE:
		cfg := binfpe.DefaultConfig()
		if s.hasOutput {
			cfg.Output = s.output
		}
		binfpe.Attach(ctx, cfg)
	case toolMemcheck:
		cfg := memcheck.DefaultConfig()
		if s.hasOutput {
			cfg.Output = s.output
		}
		memcheck.Attach(ctx, cfg)
	case toolPlain:
		// no instrumentation
	}
	if di := inj.Device(); di != nil {
		ctx.Intercept(di)
	}
	if plane != nil {
		ctx.Intercept(plane)
	}
	return a
}

// applyShared merges the session-level whitelist/freq/output overrides into
// a tool config.
func (s *Session) applyShared(white *[]string, freq *int, out *io.Writer) {
	if s.white != nil {
		*white = s.white
	}
	if s.hasFreq {
		*freq = s.freq
	}
	if s.hasOutput {
		*out = s.output
	}
}

// Finish signals program exit to the tool (final reports print to the
// configured output) and assembles the session report.
func (a *Active) Finish() *Report {
	a.Ctx.Exit()
	rep := &Report{
		Tool:              a.tool.String(),
		Cycles:            a.Ctx.Dev.Cycles,
		Launches:          a.Ctx.LaunchesDone,
		MaxKernelLaunches: a.Ctx.MaxKernelLaunches(),
	}
	if a.det != nil {
		r := a.det.ReportJSON()
		rep.Detector = &r
		rep.Summary = a.det.Summary()
		rep.Records = a.det.Records()
	}
	if a.ana != nil {
		r := a.ana.ReportJSON()
		rep.Analyzer = &r
	}
	if a.sha != nil {
		r := a.sha.ReportJSON()
		rep.Shadow = &r
	}
	if a.digest {
		rep.OutputDigest = a.Ctx.Dev.MemDigest()
	}
	rep.Faults = a.inj.Events()
	return rep
}

// Run executes one source under the session's tool and returns its report.
// The error, when non-nil, wraps the *Error taxonomy; the report is still
// returned for failed runs (cycles and any records gathered before the
// failure are valid), matching how the evaluation harness accounts hangs.
//
// Run is hardened end to end: ctx cancellation stops the launch
// cooperatively (KindCanceled, within a bounded number of executor steps),
// and a recover barrier converts device panics — memory exhaustion,
// out-of-bounds access, harness bugs — into KindResource/KindInternal
// errors instead of killing the caller (panicked runs return a nil report).
// A nil ctx behaves like context.Background().
func (s *Session) Run(ctx context.Context, src Source) (*Report, error) {
	return s.run(ctx, src, nil, nil)
}

// run is the shared engine behind Run, RunStream and campaign runs: st,
// when non-nil, is the incremental report encoder whose tail is flushed
// right after the report is assembled; plane, when non-nil, is the
// campaign's census or strike, registered after the tool (see start).
func (s *Session) run(ctx context.Context, src Source, st *fpx.ReportStreamer, plane cuda.Interceptor) (rep *Report, err error) {
	launch, op, prepErr := src.prepare(s)
	if prepErr != nil {
		return nil, prepErr
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, &Error{Kind: KindCanceled, Op: op, Err: ctxErr}
	}

	// The run key ties the fault streams to what is running, not when or
	// where: the same source under the same seed meets the same faults.
	a := s.start(fault.NewInjector(s.faults, op), plane)
	a.Ctx.Cancel = ctx.Done()

	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, recoveredError(op, r)
		}
	}()
	runErr := launch(a)
	rep = a.Finish()
	if st != nil {
		// Flush the stream tail so the concatenated fragments byte-equal
		// the report body — also for failed (hang/budget) runs, whose
		// partial reports are valid and returned.
		var sErr error
		switch {
		case rep.Detector != nil:
			sErr = st.Finish(*rep.Detector)
		case rep.Analyzer != nil:
			sErr = st.Finish(*rep.Analyzer)
		case rep.Shadow != nil:
			sErr = st.Finish(*rep.Shadow)
		}
		if sErr != nil && runErr == nil {
			runErr = sErr
		}
	}
	// The run's private device dies here; recycle its memory backings for
	// the next run. Reports never alias device memory, and the panic path
	// above skips this (a faulted device just falls to the GC). The
	// detector's GT mirror and location table recycle the same way — the
	// report holds copies of everything it needs.
	a.Ctx.Dev.Release()
	if a.det != nil {
		a.det.Recycle()
	}
	if runErr != nil {
		return rep, wrapErr(op, runErr)
	}
	return rep, nil
}

// resolveProgram looks a corpus program up, mapping failures into the
// taxonomy.
func resolveProgram(name string, fixed bool) (progs.Program, error) {
	p, err := progs.ByName(name)
	if err != nil {
		return progs.Program{}, &Error{Kind: KindUnknownProgram, Op: "program " + name, Err: err}
	}
	if fixed && p.FixedRun == nil {
		return progs.Program{}, &Error{
			Kind: KindUnknownProgram,
			Op:   "program " + name,
			Err:  errors.New("no repaired variant"),
		}
	}
	return p, nil
}
