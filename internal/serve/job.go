package serve

// The job model: a CheckRequest is validated into a (Session, Source) pair
// at admission time — so a malformed request is a 400 before it costs a
// queue slot — and the pair runs unchanged on a worker. The JobView is the
// single wire shape for both the synchronous response and /v1/jobs polling.

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"gpufpx/pkg/gpufpx"
)

// Job lifecycle states.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// CheckRequest is the POST /v1/check body. Exactly one of Prog or SASS
// selects the source; the rest tune the tool, compiler and run.
type CheckRequest struct {
	// Prog names a corpus program (GET /v1 programs come from
	// gpufpx.Programs). Fixed selects its repaired variant.
	Prog  string `json:"prog,omitempty"`
	Fixed bool   `json:"fixed,omitempty"`

	// SASS is a raw SASS listing to assemble and launch; Name labels it,
	// Grid and Block give the launch geometry (defaults 1×32).
	SASS  string `json:"sass,omitempty"`
	Name  string `json:"name,omitempty"`
	Grid  int    `json:"grid,omitempty"`
	Block int    `json:"block,omitempty"`

	// Tool selects the instrumentation: "detector" (default), "analyzer",
	// "shadow", "binfpe", "memcheck" or "plain". This string enum is the
	// only tool selector the wire accepts; a per-tool boolean such as
	// "analyzer": true is an unknown field and gets a 400.
	Tool string `json:"tool,omitempty"`

	// ToolConfig tunes the selected tool; every knob is optional. Only
	// detector, analyzer and shadow take configuration — sending it with
	// the other tools is a 400.
	ToolConfig *ToolConfig `json:"tool_config,omitempty"`

	// Compiler knobs for corpus-program sources.
	FastMath  bool   `json:"fastmath,omitempty"`
	DemoteF64 bool   `json:"demote_f64,omitempty"`
	Arch      string `json:"arch,omitempty"` // "", "ampere", "turing"

	// Instrumentation knobs: kernel whitelist and freq-redn-factor.
	Kernels []string `json:"kernels,omitempty"`
	Freq    int      `json:"freq,omitempty"`

	// Exec pins the executor ("interp", "lowered", "fused") for this job.
	Exec string `json:"exec,omitempty"`

	// CycleBudget caps each launch's dynamic instructions — the job's
	// deterministic timeout. Zero inherits the server default.
	CycleBudget uint64 `json:"cycle_budget,omitempty"`

	// Wait makes the POST block until the job finishes and return its
	// report; otherwise the response is 202 + a job id to poll.
	Wait bool `json:"wait,omitempty"`
}

// ToolConfig is the wire shape of the per-tool tuning knobs, paired with
// the "tool" selector. Zero-valued knobs inherit the tool's defaults.
type ToolConfig struct {
	// Verbose streams each new exception record as it arrives (detector).
	Verbose bool `json:"verbose,omitempty"`

	// SigBits, CancelBits and MaxFindingsPerSite tune the shadow sanitizer:
	// the significance-loss threshold (bits of drift vs the FP64 shadow),
	// the cancellation threshold (magnitude bits collapsed by an add), and
	// the per-site finding cap.
	SigBits            int `json:"sig_bits,omitempty"`
	CancelBits         int `json:"cancel_bits,omitempty"`
	MaxFindingsPerSite int `json:"max_findings_per_site,omitempty"`
}

// tool resolves the request's tool selector + config into a typed Tool.
func (req CheckRequest) tool() (gpufpx.Tool, error) {
	tc := req.ToolConfig
	switch strings.ToLower(req.Tool) {
	case "", "detector":
		cfg := gpufpx.DefaultDetectorConfig()
		if tc != nil {
			cfg.Verbose = tc.Verbose
		}
		return gpufpx.Detector(cfg), nil
	case "analyzer":
		return gpufpx.Analyzer(gpufpx.DefaultAnalyzerConfig()), nil
	case "shadow":
		cfg := gpufpx.DefaultShadowConfig()
		if tc != nil {
			if tc.SigBits > 0 {
				cfg.SigBits = tc.SigBits
			}
			if tc.CancelBits > 0 {
				cfg.CancelBits = tc.CancelBits
			}
			if tc.MaxFindingsPerSite > 0 {
				cfg.MaxFindingsPerSite = tc.MaxFindingsPerSite
			}
		}
		return gpufpx.Shadow(cfg), nil
	case "binfpe", "memcheck", "plain":
		if tc != nil {
			return gpufpx.Tool{}, fmt.Errorf("tool %q takes no tool_config", req.Tool)
		}
		switch strings.ToLower(req.Tool) {
		case "binfpe":
			return gpufpx.BinFPE(), nil
		case "memcheck":
			return gpufpx.Memcheck(), nil
		}
		return gpufpx.Plain(), nil
	}
	return gpufpx.Tool{}, fmt.Errorf("unknown tool %q (want detector, analyzer, shadow, binfpe, memcheck or plain)", req.Tool)
}

// build validates the request into a runnable (Session, Source) pair.
// Errors here are admission-time 400s; errors the Source itself produces
// (SASS parse failures, unknown programs) surface when the job runs and map
// through the taxonomy instead. A non-zero faults plan (chaos mode) attaches
// the device and channel injection planes to every job session.
func (req CheckRequest) build(defaultBudget uint64, faults gpufpx.FaultPlan) (*gpufpx.Session, gpufpx.Source, error) {
	opts, src, err := req.options(defaultBudget, faults)
	if err != nil {
		return nil, nil, err
	}
	return gpufpx.New(opts...), src, nil
}

// options validates the request into the session option list and source —
// the decomposed form of build, so admission paths that need to graft
// extra options (a campaign plan) can do so before gpufpx.New.
func (req CheckRequest) options(defaultBudget uint64, faults gpufpx.FaultPlan) ([]gpufpx.Option, gpufpx.Source, error) {
	if (req.Prog == "") == (req.SASS == "") {
		return nil, nil, fmt.Errorf(`exactly one of "prog" or "sass" must be set`)
	}

	tool, err := req.tool()
	if err != nil {
		return nil, nil, err
	}
	opts := []gpufpx.Option{gpufpx.WithTool(tool)}

	cc := gpufpx.CompileOptions{FastMath: req.FastMath, DemoteF64: req.DemoteF64}
	switch strings.ToLower(req.Arch) {
	case "", "ampere":
		cc.Arch = gpufpx.ArchAmpere
	case "turing":
		cc.Arch = gpufpx.ArchTuring
	default:
		return nil, nil, fmt.Errorf("unknown arch %q (want ampere or turing)", req.Arch)
	}
	opts = append(opts, gpufpx.WithCompile(cc))

	if req.Exec != "" {
		mode, err := gpufpx.ParseExecMode(req.Exec)
		if err != nil {
			return nil, nil, err
		}
		opts = append(opts, gpufpx.WithExec(mode))
	}
	if len(req.Kernels) > 0 {
		opts = append(opts, gpufpx.WithKernelWhitelist(req.Kernels...))
	}
	if req.Freq > 0 {
		opts = append(opts, gpufpx.WithFreq(req.Freq))
	}
	budget := req.CycleBudget
	if budget == 0 {
		budget = defaultBudget
	}
	if budget > 0 {
		opts = append(opts, gpufpx.WithCycleBudget(budget))
	}
	if faults.Enabled() {
		opts = append(opts, gpufpx.WithFaults(faults))
	}

	var src gpufpx.Source
	switch {
	case req.Prog != "":
		if req.Fixed {
			src = gpufpx.FixedProgram(req.Prog)
		} else {
			src = gpufpx.Program(req.Prog)
		}
	default:
		name := req.Name
		if name == "" {
			name = "posted.sass"
		}
		grid, block := req.Grid, req.Block
		if grid == 0 {
			grid = 1
		}
		if block == 0 {
			block = 32
		}
		src = gpufpx.SASSText(name, req.SASS, grid, block)
	}
	return opts, src, nil
}

// job is one admitted check run — or one admitted batch, which occupies
// a single queue slot and fans its items out on the worker that picks it
// up.
type job struct {
	id      string
	req     CheckRequest
	session *gpufpx.Session
	source  gpufpx.Source

	// batch holds the validated items of a batch job; nil for single
	// checks. views collects the per-item outcomes by index.
	batch []batchItem
	views []JobView

	// profile holds the admitted request of a vulnerability-profiling
	// campaign job; nil for checks and batches. progDone/progTotal track
	// durable campaign progress for /v1/jobs polling.
	profile *ProfileRequest

	// stream, when non-nil, carries incremental report fragments and
	// trailers to the admitting request's ndjson response.
	stream *jobStream

	// ctx is the job's run context; cancel stops the launch cooperatively.
	// It derives from Background, not the admitting request — async jobs
	// outlive their POST — and is canceled by a synchronous waiter's
	// disconnect (the client gave up, so the work is abandoned too).
	ctx    context.Context
	cancel context.CancelFunc

	// done closes when the job finishes (either way); synchronous waiters
	// block on it.
	done chan struct{}

	mu       sync.Mutex
	status   string
	finished bool
	rep      *gpufpx.Report
	prof     *gpufpx.ProfileReport
	err      error

	progDone, progTotal int
}

// newJob builds an admitted job with its run context.
func newJob(id string, req CheckRequest, session *gpufpx.Session, source gpufpx.Source) *job {
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		id:      id,
		req:     req,
		session: session,
		source:  source,
		ctx:     ctx,
		cancel:  cancel,
		status:  StatusQueued,
		done:    make(chan struct{}),
	}
}

// newBatchJob builds an admitted batch job.
func newBatchJob(id string, items []batchItem) *job {
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		id:     id,
		batch:  items,
		views:  make([]JobView, len(items)),
		ctx:    ctx,
		cancel: cancel,
		status: StatusQueued,
		done:   make(chan struct{}),
	}
}

// newProfileJob builds an admitted campaign job. Its session and source
// are attached by the handler once the campaign's progress callback has
// been wired to this job.
func newProfileJob(id string, req ProfileRequest) *job {
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		id:      id,
		req:     req.CheckRequest,
		profile: &req,
		ctx:     ctx,
		cancel:  cancel,
		status:  StatusQueued,
		done:    make(chan struct{}),
	}
}

// setProgress publishes campaign progress. Monotonic on done: retried
// shards re-report earlier counts, and pollers must never see progress
// move backwards.
func (j *job) setProgress(done, total int) {
	j.mu.Lock()
	if done > j.progDone {
		j.progDone = done
	}
	j.progTotal = total
	j.mu.Unlock()
}

// setItem publishes one batch item's outcome.
func (j *job) setItem(i int, v JobView) {
	j.mu.Lock()
	j.views[i] = v
	j.mu.Unlock()
}

// chaosKey derives the service-plane fault key from the job's content, not
// its id or arrival order, so a fixed seed makes the same request meet the
// same fault on every run of a concurrent server.
func (j *job) chaosKey() string {
	if j.batch != nil {
		return fmt.Sprintf("batch %d %s", len(j.batch), (&job{req: j.batch[0].req}).chaosKey())
	}
	if j.req.Prog != "" {
		return "prog " + j.req.Prog + " " + j.req.Tool
	}
	return "sass " + j.req.Name + " " + j.req.Tool + " " + j.req.SASS
}

// setRunning marks the job picked up by a worker.
func (j *job) setRunning() {
	j.mu.Lock()
	j.status = StatusRunning
	j.mu.Unlock()
}

// finish publishes the outcome and releases waiters. Idempotent: only the
// first outcome sticks, so a recover path that fires after a normal finish
// cannot double-close done or overwrite the published result.
func (j *job) finish(rep *gpufpx.Report, err error) {
	j.mu.Lock()
	if j.finished {
		j.mu.Unlock()
		return
	}
	j.finished = true
	j.rep, j.err = rep, err
	if err != nil {
		j.status = StatusFailed
	} else {
		j.status = StatusDone
	}
	j.mu.Unlock()
	if j.cancel != nil {
		j.cancel()
	}
	close(j.done)
}

// finishProfile publishes a campaign job's outcome. Idempotent like
// finish.
func (j *job) finishProfile(prof *gpufpx.ProfileReport, err error) {
	j.mu.Lock()
	if j.finished {
		j.mu.Unlock()
		return
	}
	j.finished = true
	j.prof, j.err = prof, err
	if err != nil {
		j.status = StatusFailed
	} else {
		j.status = StatusDone
	}
	j.mu.Unlock()
	if j.cancel != nil {
		j.cancel()
	}
	close(j.done)
}

// outcome returns the finished job's report and error.
func (j *job) outcome() (*gpufpx.Report, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rep, j.err
}

// JobView is the wire shape of a job, for both the synchronous response and
// /v1/jobs/{id} polling.
type JobView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Tool   string `json:"tool,omitempty"`

	// Cycles and Launches summarize the finished run.
	Cycles   uint64 `json:"cycles,omitempty"`
	Launches int    `json:"launches,omitempty"`

	// Detector, Analyzer or Shadow carries the versioned report of a done
	// job.
	Detector *gpufpx.DetectorReport `json:"detector,omitempty"`
	Analyzer *gpufpx.AnalyzerReport `json:"analyzer,omitempty"`
	Shadow   *gpufpx.ShadowReport   `json:"shadow,omitempty"`

	// Error and ErrorKind describe a failed job (ErrorKind is the taxonomy
	// name: "hang", "budget", "compile", ...).
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`

	// Items carries the per-item outcomes of a batch job, in request
	// order; nil for single checks.
	Items []JobView `json:"items,omitempty"`

	// Profile carries the finished vulnerability profile of a campaign
	// job; Progress tracks its durable trial count while it runs.
	Profile  *gpufpx.ProfileReport `json:"profile,omitempty"`
	Progress *ProgressView         `json:"progress,omitempty"`
}

// ProgressView is the wire shape of campaign progress: trials durably
// classified out of the planned total.
type ProgressView struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// view snapshots the job for the wire.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{ID: j.id, Status: j.status}
	if j.batch != nil {
		v.Items = append([]JobView(nil), j.views...)
	}
	if j.profile != nil {
		v.Progress = &ProgressView{Done: j.progDone, Total: j.progTotal}
	}
	if j.prof != nil {
		v.Profile = j.prof
		v.Tool = j.prof.Tool
		v.Cycles = j.prof.TotalCycles
	}
	if j.rep != nil {
		v.Tool = j.rep.Tool
		v.Cycles = j.rep.Cycles
		v.Launches = j.rep.Launches
		v.Detector = j.rep.Detector
		v.Analyzer = j.rep.Analyzer
		v.Shadow = j.rep.Shadow
	}
	if j.err != nil {
		v.Error = j.err.Error()
		v.ErrorKind = gpufpx.Classify(j.err).String()
	}
	return v
}
