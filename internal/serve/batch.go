package serve

// POST /v1/batch: many kernels per HTTP round-trip. A batch is admitted
// as one queued job — one queue slot, one admission decision — and the
// worker that picks it up fans the items out over the shared worker-pool
// engine (internal/pool, the same scheduler the benchmark sweeps run on).
// Items share the process-wide compile and lowering caches, so a batch of
// variants of one kernel compiles it once; that cache affinity is what
// the gateway's content-keyed sharding preserves across nodes.

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"gpufpx/internal/fault"
	"gpufpx/internal/pool"
	"gpufpx/pkg/gpufpx"
)

// maxBatchItems bounds one batch request; larger sweeps should split.
const maxBatchItems = 1024

// BatchRequest is the POST /v1/batch body: a list of check requests run
// as one job. Per-item Wait fields are ignored — the batch's own Wait
// decides whether the POST blocks for all items or returns 202 + a job id.
type BatchRequest struct {
	Items []CheckRequest `json:"items"`
	Wait  bool           `json:"wait,omitempty"`
}

// batchItem is one validated batch entry.
type batchItem struct {
	req     CheckRequest
	session *gpufpx.Session
	source  gpufpx.Source
}

// handleBatch admits one batch job.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decodeStrict(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: `"items" must not be empty`})
		return
	}
	if len(req.Items) > maxBatchItems {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("batch of %d items exceeds the limit of %d", len(req.Items), maxBatchItems)})
		return
	}

	// Validate every item at admission: a malformed entry is a 400 naming
	// the item, before the batch costs a queue slot.
	items := make([]batchItem, len(req.Items))
	for i, cr := range req.Items {
		session, source, err := cr.build(s.cfg.DefaultCycleBudget, s.cfg.Faults)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("item %d: %v", i, err)})
			return
		}
		items[i] = batchItem{req: cr, session: session, source: source}
	}

	j := newBatchJob(fmt.Sprintf("b%06d", s.nextID.Add(1)), items)
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
	s.m.batches.Add(1)
	s.m.batchItems.Add(uint64(len(items)))

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
		j.cancel()
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// runBatchJob executes one batch on its worker: the items fan out over
// the pool engine with the server's worker budget. The batch itself
// always finishes "done"; per-item failures are carried in the item
// views, classified through the same taxonomy as single jobs.
func (s *Server) runBatchJob(j *job) {
	j.setRunning()
	s.m.running.Add(1)
	func() {
		// The barrier mirrors runSession's: whatever escapes the per-item
		// barriers (a pool-level bug) must not kill the worker.
		defer func() { recover() }()
		if sf, ok := s.cfg.Faults.ServiceDecision(j.chaosKey()); ok && sf.Kind != fault.ServicePanic {
			s.chaosDelay(j, sf)
		}
		pool.ForEachN(s.cfg.Workers, len(j.batch), func(i int) {
			s.runBatchItem(j, i)
		})
	}()
	s.m.running.Add(-1)
	j.finish(nil, nil)
	s.m.completed.Add(1)
	if j.stream != nil {
		v := j.view()
		j.stream.send(StreamLine{Item: -1, Trailer: &v, Done: true})
		j.stream.close()
	}
}

// runBatchItem runs one item, hardened like a worker: a panic that
// escapes the facade barrier fails the item, not the batch.
func (s *Server) runBatchItem(j *job, i int) {
	it := j.batch[i]
	var rep *gpufpx.Report
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				rep, err = nil, fmt.Errorf("batch item panic: %v", r)
			}
		}()
		if j.stream != nil {
			rep, err = it.session.RunStream(j.ctx, it.source, func(b []byte) {
				j.stream.frag(i, b)
			})
		} else {
			rep, err = it.session.Run(j.ctx, it.source)
		}
	}()
	if rep != nil {
		s.pace(j.ctx, rep.Cycles)
	}
	v := itemView(fmt.Sprintf("%s/%d", j.id, i), rep, err)
	j.setItem(i, v)
	if err == nil {
		s.m.itemsCompleted.Add(1)
	} else {
		s.m.itemsFailed.Add(1)
		if gpufpx.Classify(err) == gpufpx.KindInternal {
			s.m.internalErrors.Add(1)
		}
	}
	if j.stream != nil {
		j.stream.send(StreamLine{Item: i, Trailer: &v})
	}
}

// itemView renders one finished batch item as the shared wire shape.
func itemView(id string, rep *gpufpx.Report, err error) JobView {
	v := JobView{ID: id, Status: StatusDone}
	if rep != nil {
		v.Tool = rep.Tool
		v.Cycles = rep.Cycles
		v.Launches = rep.Launches
		v.Detector = rep.Detector
		v.Analyzer = rep.Analyzer
		v.Shadow = rep.Shadow
	}
	if err != nil {
		v.Status = StatusFailed
		v.Error = err.Error()
		v.ErrorKind = gpufpx.Classify(err).String()
	}
	return v
}

// chaosDelay applies a bounded injected stall/slow-compile to a job.
func (s *Server) chaosDelay(j *job, sf fault.ServiceFault) {
	select {
	case <-time.After(time.Duration(sf.Millis) * time.Millisecond):
	case <-j.ctx.Done():
	}
}
