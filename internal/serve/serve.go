// Package serve is the GPU-FPX checking service: an HTTP daemon that runs
// exception-detection jobs — corpus programs or raw SASS listings — through
// the public gpufpx facade. It is the "tool as a service" deployment shape:
// a CI fleet POSTs kernels at /v1/check and gates merges on the detector
// reports that come back.
//
// The server is a bounded job queue drained by a worker pool. Every job runs
// in a private Session (its own simulated device and context), so jobs are
// fully independent; what they share is the process-wide compile cache,
// whose kernels carry their built programs, which means a fleet of jobs
// checking the same kernel compiles and lowers it once. Backpressure is explicit: a full queue
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
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpufpx/internal/fault"
	"gpufpx/internal/pool"
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
	// CampaignDir is the root directory for campaign checkpoints
	// (POST /v1/profile). Each campaign checkpoints under a subdirectory
	// keyed by its request content, so drained or killed campaigns resume
	// when the same request is re-POSTed. Empty disables persistence:
	// campaigns still run, but an interrupted one starts over.
	CampaignDir string
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

	// finishedMu guards finished — the finished jobs still in jobs, oldest
	// completion first (see retire) — and the report-reuse index (see
	// hold): byKey maps a content key to its entry in held, a
	// least-recently-used list of clean reports, most recent first.
	finishedMu sync.Mutex
	finished   []*job
	byKey      map[[32]byte]*list.Element
	held       list.List

	m metrics

	// beforeRetire, when set, runs on the worker between a job's finish and
	// its retire. Tests use it to hold a finished job there.
	beforeRetire func(*job)
}

// New builds a server; no goroutines run until Start.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{cfg: cfg, queue: make(chan *job, cfg.QueueDepth), byKey: make(map[[32]byte]*list.Element)}
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
		switch {
		case j.batch != nil:
			s.m.batches.Add(1)
			s.m.batchItems.Add(uint64(len(j.batch)))
		case j.profile != nil:
			s.m.profiles.Add(1)
		}
		return nil
	default:
		s.jobs.Delete(j.id)
		s.m.rejectedFull.Add(1)
		return errQueueFull
	}
}

// maxFinishedJobs bounds how many finished jobs stay pollable at
// /v1/jobs/{id}, and how many content keys the reuse index holds. Past it
// the oldest finished job is forgotten and its id answers 404, and the
// least recently used key is dropped; queued and running jobs are never
// evicted.
const maxFinishedJobs = 1024

// worker drains the queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
		if s.beforeRetire != nil {
			s.beforeRetire(j)
		}
		s.retire(j)
	}
}

// retire records a finished job and evicts the oldest finished job once
// more than maxFinishedJobs are held. Waiters that already hold the job
// are unaffected; only later lookups by id miss.
func (s *Server) retire(j *job) {
	s.finishedMu.Lock()
	defer s.finishedMu.Unlock()
	s.finished = append(s.finished, j)
	if len(s.finished) > maxFinishedJobs {
		s.jobs.Delete(s.finished[0].id)
		s.finished[0] = nil
		s.finished = s.finished[1:]
	}
}

// heldReport is one entry of the reuse index: a clean report until its
// key's first reuse, and from then on, in its place, the bytes of the done
// job view that follow the job id (see doneTail).
type heldReport struct {
	key  [32]byte
	rep  *gpufpx.Report
	tail []byte
}

// hold records the clean report of a keyed job as its key's report, or
// marks the key used if it is already held, and drops the least recently
// used key past maxFinishedJobs keys. runJob calls it before finish sends
// the reply, so a repeat posted the moment the reply arrives finds it.
func (s *Server) hold(j *job, rep *gpufpx.Report) {
	if !j.keyed {
		return
	}
	s.finishedMu.Lock()
	defer s.finishedMu.Unlock()
	if e := s.byKey[j.key]; e != nil {
		s.held.MoveToFront(e)
		return
	}
	s.byKey[j.key] = s.held.PushFront(&heldReport{key: j.key, rep: rep})
	if s.held.Len() > maxFinishedJobs {
		delete(s.byKey, s.held.Remove(s.held.Back()).(*heldReport).key)
	}
}

// reusable returns the held view bytes for j's content key and marks the
// key used, or returns nil. The key's first reuse encodes the bytes from
// the held report, which the entry then drops, so a key that is never
// repeated costs no encode. The bytes are shared between the jobs and
// read-only. A job canceled before it ran does not reuse: it runs and
// fails classified, as it would without the index.
func (s *Server) reusable(j *job) []byte {
	if !j.keyed || j.ctx.Err() != nil {
		return nil
	}
	s.finishedMu.Lock()
	defer s.finishedMu.Unlock()
	e := s.byKey[j.key]
	if e == nil {
		return nil
	}
	s.held.MoveToFront(e)
	h := e.Value.(*heldReport)
	if h.tail == nil {
		if h.tail = doneTail(h.rep); h.tail != nil {
			h.rep = nil
		}
	}
	return h.tail
}

// runJob executes one job of any kind and publishes its outcome. The
// worker itself is hardened: whatever happens inside — a device fault that
// escaped the facade barrier, an injected chaos panic, a harness bug — the
// job finishes classified and the worker goroutine survives to take the
// next job.
func (s *Server) runJob(j *job) {
	j.setRunning()
	s.m.running.Add(1)
	res, err := s.run(j)
	s.m.running.Add(-1)
	if err == nil && res.rep != nil {
		s.hold(j, res.rep)
	}
	j.finish(res, err)
	completed, failed := &s.m.completed, &s.m.failed
	if j.profile != nil {
		completed, failed = &s.m.profilesCompleted, &s.m.profilesFailed
	}
	if err == nil {
		completed.Add(1)
	} else {
		failed.Add(1)
		if gpufpx.Classify(err) == gpufpx.KindInternal {
			s.m.internalErrors.Add(1)
		}
	}
	if j.stream != nil {
		// A check's trailer is its item 0; a batch's aggregate is item -1.
		item := 0
		if j.batch != nil {
			item = -1
		}
		v, _ := j.view()
		j.stream.send(StreamLine{Item: item, Trailer: &v, Done: true})
		j.stream.close()
	}
}

// run is the job's per-kind body inside the worker recover barrier: a
// campaign runs Session.Profile, a batch fans its items out, and a check
// reuses a held view or runs its session. Checks and batches first meet
// any service-plane chaos decision; a batch rides out an injected panic.
// The barrier is unconditional — it guards real harness bugs, not just
// injected ones.
func (s *Server) run(j *job) (res result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = result{}, fmt.Errorf("worker panic: %v", r)
		}
	}()
	if j.profile != nil {
		res.prof, err = j.session.Profile(j.ctx, j.source)
		return res, err
	}
	// A repeat of a held clean check finishes with its view's bytes
	// instead of re-simulating; it is still counted and retired.
	if res.tail = s.reusable(j); res.tail != nil {
		s.m.reused.Add(1)
		return res, nil
	}
	if sf, ok := s.cfg.Faults.ServiceDecision(j.chaosKey()); ok {
		if sf.Kind != fault.ServicePanic {
			// A bounded injected delay: the job sits on its worker — queue
			// stall — or "compiles slowly" before running. Either way the
			// job still terminates classified.
			select {
			case <-time.After(time.Duration(sf.Millis) * time.Millisecond):
			case <-j.ctx.Done():
			}
		} else if j.batch == nil {
			panic(fmt.Sprintf("chaos: injected worker panic (job %s)", j.id))
		}
	}
	if j.batch != nil {
		pool.ForEachN(s.cfg.Workers, len(j.batch), func(i int) {
			s.runBatchItem(j, i)
		})
		return res, nil
	}
	res.rep, err = j.exec(0, j.session, j.source)
	return res, err
}

// exec runs one source of the job, streaming its report fragments as item
// i when the job streams.
func (j *job) exec(i int, session *gpufpx.Session, source gpufpx.Source) (*gpufpx.Report, error) {
	if j.stream == nil {
		return session.Run(j.ctx, source)
	}
	return session.RunStream(j.ctx, source, func(b []byte) {
		j.stream.frag(i, b)
	})
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

// writeJSON serializes one response. It encodes into a buffer first, so
// that the reply carries a Content-Length instead of going out chunked.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	writeHead(w, status, buf.Len())
	w.Write(buf.Bytes())
}

// writeHead writes the headers of a JSON reply of n bytes.
func writeHead(w http.ResponseWriter, status, n int) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
}

// idHead is how every job view's encoding begins; the job id follows it.
const idHead = "{\n  \"id\": \""

// doneTail encodes the view of a done check with report rep as writeJSON
// would and returns the bytes after the job id: the part of the view that
// every job with this report shares. It returns nil if rep does not
// encode.
func doneTail(rep *gpufpx.Report) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	v := JobView{Status: StatusDone}
	v.setOutcome(rep, nil)
	if enc.Encode(v) != nil || !bytes.HasPrefix(buf.Bytes(), []byte(idHead)) {
		return nil
	}
	return bytes.Clone(buf.Bytes()[len(idHead):])
}

// writeJob writes a job's view: a reused check's held bytes after its id,
// or the view encoded now. It is the one renderer of a job for every
// reply and poll.
func writeJob(w http.ResponseWriter, status int, j *job) {
	v, tail := j.view()
	if tail == nil {
		writeJSON(w, status, v)
		return
	}
	writeHead(w, status, len(idHead)+len(v.ID)+len(tail))
	io.WriteString(w, idHead)
	io.WriteString(w, v.ID)
	w.Write(tail)
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

// decodeStrict reads and strictly decodes a JSON request body into v (see
// decodeBody), writing the failure response itself (400) when it returns
// false.
func (s *Server) decodeStrict(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err == nil {
		err = decodeBody(body, v)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// decodeBody decodes one JSON value into v. Unknown fields are errors, so a
// misspelled or retired key is never silently dropped, and so is anything
// but whitespace after the value.
func decodeBody(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
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
	if wantStream(r) {
		j.stream = newJobStream()
	} else if !s.cfg.Faults.Enabled() {
		// Streams must deliver fragments as the run produces them, and
		// chaos-mode jobs must each meet their faults, so neither reuses.
		j.key, j.keyed = req.key(s.cfg.DefaultCycleBudget), true
	}
	s.respond(w, r, j, req.Wait)
}

// respond queues an admitted job of any kind and answers its request: 503
// while draining, 429 with Retry-After on a full queue; otherwise the
// ndjson stream, 202 with the job's Location, or — with wait — the
// finished view, a failed job's error mapped through the taxonomy.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, j *job, wait bool) {
	if err := s.enqueue(j); err != nil {
		if errors.Is(err, errDraining) {
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		} else {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		}
		return
	}
	if j.stream != nil {
		s.serveStream(w, r, j)
		return
	}
	if !wait {
		w.Header().Set("Location", "/v1/jobs/"+j.id)
		writeJob(w, http.StatusAccepted, j)
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The synchronous client went away: nobody wants this run anymore,
		// so cancel it. The launch stops cooperatively (KindCanceled) and
		// the job stays pollable with its classified outcome; a campaign's
		// completed shards are durable, so a re-POST resumes.
		j.cancel()
		return
	}
	if _, err := j.outcome(); err != nil {
		writeError(w, err)
		return
	}
	writeJob(w, http.StatusOK, j)
}

// handleJob reports one job's state (and, once done, its report).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	v, ok := s.jobs.Load(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + r.PathValue("id")})
		return
	}
	writeJob(w, http.StatusOK, v.(*job))
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
