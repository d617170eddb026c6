package serve

// POST /v1/profile: SDC vulnerability-profiling campaigns as a service.
// A profile job is admitted like a check — validated to a 400 before it
// costs a queue slot, bounded by the same queue (429/503 admission) — but
// it is long-running by design, so the default shape is asynchronous:
// 202 + a job id, with durable progress at GET /v1/jobs/{id} while the
// campaign sweeps.
//
// Durability is the point. With Config.CampaignDir set, every campaign
// checkpoints under a directory keyed by the request's content, so a
// server that is drained (or killed) mid-campaign persists its completed
// shards, and re-POSTing the same request to a restarted server resumes
// from them instead of starting over. Profiles are deterministic across
// that whole lifecycle: interrupted+resumed and uninterrupted campaigns
// produce byte-identical reports.

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"path/filepath"

	"gpufpx/pkg/gpufpx"
)

// Campaign sizing bounds: a request past these caps is a 400 — the knob
// for bigger sweeps is more requests (the checkpoint dir makes re-POSTs
// resume), not one unbounded job monopolizing a worker.
const (
	DefaultTrialsPerSite = 8
	maxTrialsPerSite     = 64
	DefaultMaxSites      = 32
	maxCampaignSites     = 256
)

// ProfileRequest is the POST /v1/profile body: the source, tool and
// compiler knobs of a CheckRequest, plus the campaign plan. The chaos
// fault planes never attach to profile sessions: background chaos would
// make trial outcomes unattributable.
type ProfileRequest struct {
	CheckRequest

	// Seed keys the campaign's trial plan; the same request with the same
	// seed always runs (and re-runs) the identical sweep.
	Seed uint64 `json:"seed,omitempty"`
	// TrialsPerSite is the number of strikes per instruction site
	// (default 8, max 64).
	TrialsPerSite int `json:"trials_per_site,omitempty"`
	// MaxSites caps the number of profiled sites, highest dynamic count
	// first (default 32, max 256).
	MaxSites int `json:"max_sites,omitempty"`
}

// plan validates the request into the session option list, source and
// campaign config. Admission-time 400s, like CheckRequest.build.
func (req ProfileRequest) plan(cfg Config) ([]gpufpx.Option, gpufpx.Source, gpufpx.CampaignConfig, error) {
	var zero gpufpx.CampaignConfig
	if req.TrialsPerSite < 0 || req.TrialsPerSite > maxTrialsPerSite {
		return nil, nil, zero, fmt.Errorf("trials_per_site %d out of range [0, %d]", req.TrialsPerSite, maxTrialsPerSite)
	}
	if req.MaxSites < 0 || req.MaxSites > maxCampaignSites {
		return nil, nil, zero, fmt.Errorf("max_sites %d out of range [0, %d]", req.MaxSites, maxCampaignSites)
	}
	opts, src, err := req.CheckRequest.options(cfg.DefaultCycleBudget, gpufpx.FaultPlan{})
	if err != nil {
		return nil, nil, zero, err
	}
	camp := gpufpx.CampaignConfig{
		Seed:          req.Seed,
		TrialsPerSite: req.TrialsPerSite,
		MaxSites:      req.MaxSites,
		Workers:       cfg.CampaignWorkers,
	}
	if camp.TrialsPerSite == 0 {
		camp.TrialsPerSite = DefaultTrialsPerSite
	}
	if camp.MaxSites == 0 {
		camp.MaxSites = DefaultMaxSites
	}
	if cfg.CampaignDir != "" {
		camp.Dir = filepath.Join(cfg.CampaignDir, req.specKey())
	}
	return opts, src, camp, nil
}

// specKey derives the checkpoint directory name from the request's
// content (minus Wait, which is delivery, not identity): the same
// campaign re-POSTed after a restart lands on the same checkpoint and
// resumes. The campaign manifest independently verifies plan identity,
// so a key collision refuses cleanly rather than corrupting a profile.
func (req ProfileRequest) specKey() string {
	req.Wait = false
	b, _ := json.Marshal(req)
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// handleProfile admits one campaign job. Default is async: 202 + job id;
// "wait": true blocks for the finished profile (small campaigns, tests).
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	var req ProfileRequest
	if !s.decodeStrict(w, r, &req) {
		return
	}
	opts, src, camp, err := req.plan(s.cfg)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	j := newProfileJob(fmt.Sprintf("p%06d", s.nextID.Add(1)), req)
	// Wire durable progress to the job before the session captures the
	// campaign config.
	camp.OnProgress = j.setProgress
	j.session = gpufpx.New(append(opts, gpufpx.WithCampaign(camp))...)
	j.source = src

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
	s.m.profiles.Add(1)

	if !req.Wait {
		w.Header().Set("Location", "/v1/jobs/"+j.id)
		writeJSON(w, http.StatusAccepted, j.view())
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The synchronous waiter went away; stop the campaign. Completed
		// shards are durable, so a re-POST resumes.
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

// runProfileJob executes one campaign on its worker, hardened like
// runJob: whatever escapes the facade, the job finishes classified and
// the worker survives. Pacing charges the campaign's total simulated
// cycles once, at completion.
func (s *Server) runProfileJob(j *job) {
	j.setRunning()
	s.m.running.Add(1)
	prof, err := func() (p *gpufpx.ProfileReport, err error) {
		defer func() {
			if r := recover(); r != nil {
				p, err = nil, fmt.Errorf("worker panic: %v", r)
			}
		}()
		return j.session.Profile(j.ctx, j.source)
	}()
	if prof != nil {
		s.pace(j.ctx, prof.TotalCycles)
	}
	s.m.running.Add(-1)
	j.finishProfile(prof, err)
	switch {
	case err == nil:
		s.m.profilesCompleted.Add(1)
	default:
		s.m.profilesFailed.Add(1)
		if gpufpx.Classify(err) == gpufpx.KindInternal {
			s.m.internalErrors.Add(1)
		}
	}
}
