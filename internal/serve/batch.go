package serve

// POST /v1/batch: many kernels per HTTP round-trip. A batch is admitted
// as one queued job — one queue slot, one admission decision — and the
// worker that picks it up fans the items out over the shared worker-pool
// engine (internal/pool, the same scheduler the benchmark sweeps run on).
// Items share the process-wide compile cache, so a batch of
// variants of one kernel compiles it once; that cache affinity is what
// the gateway's content-keyed sharding preserves across nodes.

import (
	"fmt"
	"net/http"

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

	j := newJob(fmt.Sprintf("b%06d", s.nextID.Add(1)), CheckRequest{}, nil, nil)
	j.batch, j.views = items, make([]JobView, len(items))
	if wantStream(r) {
		j.stream = newJobStream()
	}
	s.respond(w, r, j, req.Wait)
}

// runBatchItem runs one item with its own recover barrier: a panic that
// escapes the facade barrier fails the item, not the batch. The batch
// itself finishes "done"; per-item failures are carried in the item views,
// classified through the same taxonomy as single jobs.
func (s *Server) runBatchItem(j *job, i int) {
	it := j.batch[i]
	rep, err := func() (rep *gpufpx.Report, err error) {
		defer func() {
			if r := recover(); r != nil {
				rep, err = nil, fmt.Errorf("batch item panic: %v", r)
			}
		}()
		return j.exec(i, it.session, it.source)
	}()
	v := JobView{ID: fmt.Sprintf("%s/%d", j.id, i), Status: StatusDone}
	if err != nil {
		v.Status = StatusFailed
	}
	v.setOutcome(rep, err)
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
