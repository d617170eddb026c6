// Package serve is the GPU-FPX checking service: an HTTP daemon that runs
// exception-detection jobs — corpus programs or raw SASS listings — through
// the public gpufpx facade. It is the "tool as a service" deployment shape:
// a CI fleet POSTs kernels at /v1/check and gates merges on the detector
// reports that come back.
//
// The server is a bounded job queue drained by a worker pool. Every job runs
// in a private Session (its own simulated device and context), so jobs are
// fully independent; what they share are the process-wide compile and
// lowering caches, which means a fleet of jobs checking the same kernel
// compiles and lowers it once. Backpressure is explicit: a full queue
// rejects with 429 rather than buffering unboundedly, and a draining server
// (SIGTERM) rejects with 503 while in-flight jobs run to completion.
//
// "Timeouts" are deterministic, not wall-clock: a job's cycle_budget caps
// the simulated dynamic-instruction count (WithCycleBudget), so a runaway
// kernel fails with KindBudget after a bounded amount of simulated work —
// reported as 408 — and a channel-watchdog hang fails with KindHang — 504.
// The same job on the same inputs always times out (or doesn't) the same
// way, on any machine, under any load.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gpufpx/internal/fault"
	"gpufpx/pkg/gpufpx"
)

// Config sizes the service.
type Config struct {
	// QueueDepth bounds the number of jobs waiting to run; enqueueing past
	// it fails with 429. Zero means 64.
	QueueDepth int
	// Workers is the number of concurrent job runners. Zero means
	// GOMAXPROCS. (Tests that need a deterministically full queue build a
	// server and never call Start.)
	Workers int
	// DefaultCycleBudget caps each launch's dynamic instructions for jobs
	// that do not set their own cycle_budget. Zero leaves the device's
	// stock budget in place.
	DefaultCycleBudget uint64
	// MaxBodyBytes bounds a request body. Zero means 8 MiB.
	MaxBodyBytes int64
	// Faults enables chaos mode: the device and channel planes attach to
	// every job session, and the service plane injects worker panics,
	// stalls and slow compiles at the pool. The zero plan injects nothing.
	Faults gpufpx.FaultPlan
	// CycleRate caps the node's throughput at this many simulated cycles
	// per wall-clock second (0 = unlimited). It models a provisioned node
	// slice: completed work is charged against the budget and responses
	// wait for their cycles to "elapse". The fleet benchmark pins the same
	// rate on every node so gateway scaling is measured against a fixed
	// per-node capacity instead of whatever share of the host CPU each
	// process happens to win.
	CycleRate float64
	// CampaignDir is the root directory for campaign checkpoints
	// (POST /v1/profile). Each campaign checkpoints under a subdirectory
	// keyed by its request content, so drained or killed campaigns resume
	// when the same request is re-POSTed. Empty disables persistence:
	// campaigns still run, but an interrupted one starts over.
	CampaignDir string
	// CampaignWorkers fans one campaign's trials over this many runners
	// (0 or 1 = sequential). Profiles are byte-identical either way; this
	// only trades one campaign's latency against the node's job
	// throughput.
	CampaignWorkers int
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Server is the checking service. Build with New, spawn the worker pool
// with Start, mount Handler on an http.Server, and Drain on shutdown.
type Server struct {
	cfg Config

	// mu guards draining and the close of queue; enqueue holds it so a
	// send can never race the close.
	mu       sync.Mutex
	draining bool

	queue chan *job
	wg    sync.WaitGroup

	jobs   sync.Map // id → *job
	nextID atomic.Uint64

	// finishedMu guards finished: the ids of finished jobs still in jobs,
	// oldest completion first (see retire).
	finishedMu sync.Mutex
	finished   []string

	// paceMu/paceNext implement the cycle-rate governor: a virtual
	// completion clock shared by all workers. Charging c cycles advances
	// the clock by c/CycleRate seconds and sleeps until it; under load the
	// node's throughput converges to exactly CycleRate.
	paceMu   sync.Mutex
	paceNext time.Time

	m metrics
}

// New builds a server; no goroutines run until Start.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{cfg: cfg, queue: make(chan *job, cfg.QueueDepth)}
}

// pace charges finished work against the node's cycle-rate budget,
// blocking until the simulated capacity has "caught up" (or ctx ends).
// A zero rate disables the governor.
func (s *Server) pace(ctx context.Context, cycles uint64) {
	if s.cfg.CycleRate <= 0 || cycles == 0 {
		return
	}
	d := time.Duration(float64(cycles) / s.cfg.CycleRate * float64(time.Second))
	s.paceMu.Lock()
	now := time.Now()
	if s.paceNext.Before(now) {
		s.paceNext = now
	}
	s.paceNext = s.paceNext.Add(d)
	wait := s.paceNext.Sub(now)
	s.paceMu.Unlock()
	if wait <= 0 {
		return
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Start spawns the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Drain stops admission, lets queued and in-flight jobs finish, and waits
// for the worker pool to exit (bounded by ctx). Safe to call more than
// once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
		// Campaigns are long-running by design: cancel them instead of
		// waiting them out. Their completed shards are already durable, so
		// a restarted server resumes from the checkpoint when the same
		// request is re-POSTed.
		s.jobs.Range(func(_, v any) bool {
			if j := v.(*job); j.profile != nil {
				j.cancel()
			}
			return true
		})
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Admission errors.
var (
	errQueueFull = errors.New("job queue full")
	errDraining  = errors.New("server draining")
)

// enqueue registers and queues a job, or reports why it cannot.
func (s *Server) enqueue(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.m.rejectedDraining.Add(1)
		return errDraining
	}
	// Register before the send: a worker may pick the job up (and a client
	// may poll it) the instant it is queued.
	s.jobs.Store(j.id, j)
	select {
	case s.queue <- j:
		s.m.accepted.Add(1)
		return nil
	default:
		s.jobs.Delete(j.id)
		s.m.rejectedFull.Add(1)
		return errQueueFull
	}
}

// maxFinishedJobs bounds how many finished jobs stay pollable at
// /v1/jobs/{id}. Past it the oldest finished job is forgotten and its id
// answers 404; queued and running jobs are never evicted.
const maxFinishedJobs = 1024

// worker drains the queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
		s.retire(j)
	}
}

// retire records a finished job and evicts the oldest finished job once
// more than maxFinishedJobs are held. Waiters that already hold the job
// are unaffected; only later lookups by id miss.
func (s *Server) retire(j *job) {
	s.finishedMu.Lock()
	defer s.finishedMu.Unlock()
	s.finished = append(s.finished, j.id)
	if len(s.finished) > maxFinishedJobs {
		s.jobs.Delete(s.finished[0])
		s.finished = s.finished[1:]
	}
}

// runJob executes one job and publishes its outcome. The worker itself is
// hardened: whatever happens inside — a device fault that escaped the
// facade barrier, an injected chaos panic, a harness bug — the job finishes
// classified and the worker goroutine survives to take the next job.
func (s *Server) runJob(j *job) {
	if j.batch != nil {
		s.runBatchJob(j)
		return
	}
	if j.profile != nil {
		s.runProfileJob(j)
		return
	}
	j.setRunning()
	s.m.running.Add(1)
	rep, err := s.runSession(j)
	if rep != nil {
		s.pace(j.ctx, rep.Cycles)
	}
	s.m.running.Add(-1)
	j.finish(rep, err)
	switch {
	case err == nil:
		s.m.completed.Add(1)
	default:
		s.m.failed.Add(1)
		if gpufpx.Classify(err) == gpufpx.KindInternal {
			s.m.internalErrors.Add(1)
		}
	}
	if j.stream != nil {
		v := j.view()
		j.stream.send(StreamLine{Item: 0, Trailer: &v, Done: true})
		j.stream.close()
	}
}

// runSession runs the job's session inside the worker recover barrier,
// applying any service-plane chaos decision first. The barrier is
// unconditional — it guards real harness bugs, not just injected ones.
func (s *Server) runSession(j *job) (rep *gpufpx.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("worker panic: %v", r)
		}
	}()
	if sf, ok := s.cfg.Faults.ServiceDecision(j.chaosKey()); ok {
		switch sf.Kind {
		case fault.ServicePanic:
			panic(fmt.Sprintf("chaos: injected worker panic (job %s)", j.id))
		case fault.ServiceStall, fault.ServiceSlowCompile:
			// A bounded injected delay: the job sits on its worker — queue
			// stall — or "compiles slowly" before running. Either way the
			// job still terminates classified.
			select {
			case <-time.After(time.Duration(sf.Millis) * time.Millisecond):
			case <-j.ctx.Done():
			}
		}
	}
	if j.stream != nil {
		return j.session.RunStream(j.ctx, j.source, func(b []byte) {
			j.stream.frag(0, b)
		})
	}
	return j.session.Run(j.ctx, j.source)
}

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/check", s.handleCheck)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/profile", s.handleProfile)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// errorBody is the wire shape of every failure response.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

// writeJSON serializes one response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError maps a job failure to its HTTP status via the error taxonomy —
// the type switch the typed errors exist for.
func writeError(w http.ResponseWriter, err error) {
	kind := gpufpx.Classify(err)
	var status int
	switch kind {
	case gpufpx.KindUnknownProgram:
		status = http.StatusNotFound
	case gpufpx.KindBadSource, gpufpx.KindCompile:
		status = http.StatusUnprocessableEntity
	case gpufpx.KindHang:
		status = http.StatusGatewayTimeout
	case gpufpx.KindBudget:
		status = http.StatusRequestTimeout
	case gpufpx.KindResource:
		// The simulated device ran out of memory or accessed out of
		// bounds — the job's resources, not the server's health.
		status = http.StatusInsufficientStorage
	case gpufpx.KindCanceled:
		// nginx's 499 "client closed request": the waiter disconnected and
		// the run was stopped cooperatively. Only polling clients see it.
		status = 499
	default:
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, errorBody{Error: err.Error(), Kind: kind.String()})
}

// decodeStrict reads and strictly decodes a JSON request body into v,
// writing the failure response itself (400) when it returns false. Unknown
// fields are errors, so a misspelled or retired key is never silently
// dropped.
func (s *Server) decodeStrict(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// handleCheck admits one job. With "wait": true the response is the
// finished job (the synchronous CI shape); otherwise 202 with the job id to
// poll at /v1/jobs/{id}.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	if !s.decodeStrict(w, r, &req) {
		return
	}

	session, source, err := req.build(s.cfg.DefaultCycleBudget, s.cfg.Faults)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	j := newJob(fmt.Sprintf("j%06d", s.nextID.Add(1)), req, session, source)
	stream := wantStream(r)
	if stream {
		j.stream = newJobStream()
	}
	if err := s.enqueue(j); err != nil {
		switch {
		case errors.Is(err, errDraining):
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		default:
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		}
		return
	}

	if stream {
		s.serveStream(w, r, j)
		return
	}
	if !req.Wait {
		w.Header().Set("Location", "/v1/jobs/"+j.id)
		writeJSON(w, http.StatusAccepted, j.view())
		return
	}

	select {
	case <-j.done:
	case <-r.Context().Done():
		// The synchronous client went away: nobody wants this run anymore,
		// so cancel it. The launch stops cooperatively (KindCanceled) and
		// the job stays pollable with its classified outcome.
		j.cancel()
		return
	}
	v := j.view()
	if v.Status == StatusFailed {
		_, err := j.outcome()
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleJob reports one job's state (and, once done, its report).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	v, ok := s.jobs.Load(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, v.(*job).view())
}

// healthBody is the /healthz wire shape.
type healthBody struct {
	Status     string `json:"status"`
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
}

// handleHealthz reports readiness: 200 while admitting, 503 once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	b := healthBody{
		Status:     "ok",
		Workers:    s.cfg.Workers,
		QueueDepth: len(s.queue),
		QueueCap:   s.cfg.QueueDepth,
	}
	if draining {
		b.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, b)
		return
	}
	writeJSON(w, http.StatusOK, b)
}
