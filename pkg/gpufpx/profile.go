package gpufpx

// Vulnerability-profiling campaigns on the public facade. Session.Profile
// runs a campaign over one source: a golden (fault-free) run takes a census
// of every strikeable instruction site and fingerprints the output memory,
// then thousands of seeded single-bit register flips — one surgical strike
// per trial run — are classified against that golden reference:
//
//	crash     the trial run failed (guard trip, hang, budget, panic)
//	detected  the tool's JSON report diverged from the golden report
//	sdc       the output digest diverged but the report did not
//	masked    neither diverged
//
// Detection is judged by report bytes, so "detected" is meaningful for the
// tools with a wire report (detector, analyzer, shadow); under plain,
// binfpe or memcheck every non-crash corruption counts as SDC, which is
// exactly the uninstrumented baseline a coverage number is measured
// against. The sweep itself — trial planning, checkpointing, resume, retry,
// cancellation — is internal/campaign's job; this file only knows how to
// run and judge one trial.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"gpufpx/internal/campaign"
	"gpufpx/internal/fault"
	"gpufpx/internal/report"
)

type (
	// CampaignConfig plans a Session.Profile campaign (WithCampaign). The
	// Program and Tool labels are set by the session; every other field is
	// the caller's.
	CampaignConfig = campaign.Config
	// ProfileReport is the versioned vulnerability-profile wire schema.
	ProfileReport = report.ProfileReportJSON
	// SiteProfile is one site's outcome histogram in a ProfileReport.
	SiteProfile = report.SiteProfileJSON
	// ProfileTotals is the whole-campaign outcome histogram.
	ProfileTotals = report.ProfileTotalsJSON
)

// ProfileSchemaVersion is the current profile wire-schema major.
const ProfileSchemaVersion = report.ProfileSchema

// WithCampaign sets the session's campaign plan for Session.Profile.
// Sessions without one profile with the defaults (seed 0, 8 trials per
// site, no checkpointing).
func WithCampaign(cfg CampaignConfig) Option {
	return func(s *Session) { s.camp = cfg }
}

// EncodeProfileReport writes the canonical two-space-indented profile
// encoding — the byte-identity contract campaign proofs compare.
func EncodeProfileReport(w io.Writer, rep *ProfileReport) error {
	return report.EncodeProfile(w, rep)
}

// LoadProfileReport parses a profile report, rejecting unknown schema
// majors with ErrSchema.
func LoadProfileReport(r io.Reader) (ProfileReport, error) {
	return report.LoadProfile(r)
}

// Profile runs a vulnerability campaign over one source and returns the
// AVF-style per-site profile. The campaign is deterministic end to end:
// the same session configuration, source and campaign seed produce a
// byte-identical report (EncodeProfileReport) regardless of worker count,
// interruptions or checkpoint resumes. Cancellation aborts promptly with
// KindCanceled; with CampaignConfig.Dir set, completed shards survive and
// a rerun resumes from them.
//
// Profile refuses sessions with an enabled WithFaults plan: a background
// fault spray in trial runs would make outcomes unattributable to the
// trial's one strike.
func (s *Session) Profile(ctx context.Context, src Source) (*ProfileReport, error) {
	_, op, err := src.prepare(s)
	if err != nil {
		return nil, err
	}
	if s.faults.Enabled() {
		return nil, &Error{
			Kind: KindBadSource,
			Op:   op,
			Err:  errors.New("campaign profiling cannot combine with WithFaults: a background fault spray would make trial outcomes unattributable"),
		}
	}
	cfg := s.camp
	cfg.Program = strings.TrimPrefix(op, "run ")
	cfg.Tool = s.tool.String()
	return campaign.Run(ctx, cfg, &profileRunner{s: s, src: src, op: op})
}

// profileRunner implements campaign.Runner over a session: private device
// per run, shared compile caches, so concurrent trials are safe.
type profileRunner struct {
	s   *Session
	src Source
	op  string

	// Set by Golden, read-only during trials.
	goldenReport []byte
	goldenDigest uint64
}

// Golden implements campaign.Runner.
func (r *profileRunner) Golden(ctx context.Context) (*campaign.Golden, error) {
	census := fault.NewCensus()
	rep, err := r.s.run(ctx, r.src, nil, census)
	if err != nil {
		return nil, err
	}
	r.goldenReport = toolReportBytes(rep)
	r.goldenDigest = rep.OutputDigest
	sites := census.Sites()
	return &campaign.Golden{
		// "exec=0" is the executor selector default sessions once put in
		// the key. The trial plan is seeded from these bytes, so they stay
		// as they were: seeded profiles and saved checkpoints remain
		// byte-identical.
		Key: fmt.Sprintf("%s tool=%s exec=0 digest=%016x sites=%d",
			r.op, r.s.tool, rep.OutputDigest, len(sites)),
		Digest: rep.OutputDigest,
		Sites:  sites,
	}, nil
}

// Trial implements campaign.Runner: one targeted strike, classified
// against the golden reference. Crash dominates, then detected, then SDC —
// a trial that both corrupts output and trips the tool counts as detected,
// because the corruption was not silent.
func (r *profileRunner) Trial(ctx context.Context, t campaign.Trial) (campaign.Result, error) {
	ti := fault.NewTargetedInjector(fault.Target{
		Kernel:     t.Kernel,
		PC:         t.PC,
		Occurrence: t.Occurrence,
		LaneSel:    t.LaneSel,
		Bit:        t.Bit,
	})
	rep, err := r.s.run(ctx, r.src, nil, ti)
	if err != nil {
		if Classify(err) == KindCanceled {
			// The caller gave up; this is an engine abort, not an outcome.
			return campaign.Result{}, err
		}
		var cycles uint64
		if rep != nil {
			cycles = rep.Cycles
		}
		return campaign.Result{Class: campaign.Crash, Cycles: cycles}, nil
	}
	res := campaign.Result{Class: campaign.Masked, Cycles: rep.Cycles}
	switch {
	case !bytes.Equal(toolReportBytes(rep), r.goldenReport):
		res.Class = campaign.Detected
	case rep.OutputDigest != r.goldenDigest:
		res.Class = campaign.SDC
	}
	return res, nil
}

// toolReportBytes renders the run's tool report in the canonical encoding,
// nil for tools without one.
func toolReportBytes(rep *Report) []byte {
	if rep.Detector == nil && rep.Analyzer == nil && rep.Shadow == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil
	}
	return buf.Bytes()
}
