package gpufpx_test

// The facade-level campaign proofs from the vulnerability-profiling
// acceptance bar: for a fixed seed, a campaign run to completion, a
// campaign canceled at ~50% and resumed from its checkpoint, a campaign
// under worker parallelism and a campaign on the reference interpreter all
// produce byte-identical ProfileReportJSON.

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"gpufpx/internal/device"
	"gpufpx/pkg/gpufpx"
)

func profileSession(t *testing.T, camp gpufpx.CampaignConfig, extra ...gpufpx.Option) *gpufpx.Session {
	t.Helper()
	opts := append([]gpufpx.Option{
		gpufpx.WithTool(gpufpx.Detector(gpufpx.DefaultDetectorConfig())),
		gpufpx.WithCycleBudget(1 << 24),
		gpufpx.WithCampaign(camp),
	}, extra...)
	return gpufpx.New(opts...)
}

func encodeProfile(t *testing.T, rep *gpufpx.ProfileReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gpufpx.EncodeProfileReport(&buf, rep); err != nil {
		t.Fatalf("encoding profile: %v", err)
	}
	return buf.Bytes()
}

func baseCampaign() gpufpx.CampaignConfig {
	return gpufpx.CampaignConfig{Seed: 7, TrialsPerSite: 4, MaxSites: 8, ShardSize: 4}
}

// TestProfileDeterminismProof is the determinism + durability proof over a
// real program: full run, canceled-and-resumed run, a run fanned over
// campaign workers and a run on the reference interpreter all yield the
// same profile bytes.
func TestProfileDeterminismProof(t *testing.T) {
	const prog = "interval"
	ctx := context.Background()

	full, err := profileSession(t, baseCampaign()).Profile(ctx, gpufpx.Program(prog))
	if err != nil {
		t.Fatalf("full campaign: %v", err)
	}
	want := encodeProfile(t, full)
	if full.Totals.Trials == 0 || len(full.Sites) == 0 {
		t.Fatalf("empty campaign: %+v", full.Totals)
	}

	// Campaign workers change only the trial schedule, never the profile.
	par := baseCampaign()
	par.Workers = 4
	rep, err := profileSession(t, par).Profile(ctx, gpufpx.Program(prog))
	if err != nil {
		t.Fatalf("parallel campaign: %v", err)
	}
	if got := encodeProfile(t, rep); !bytes.Equal(got, want) {
		t.Errorf("parallel campaign profile differs from sequential")
	}

	// Cancel at ~50% durable progress, then resume from the checkpoint.
	ck := baseCampaign()
	ck.Dir = t.TempDir()
	cctx, cancel := context.WithCancel(ctx)
	ck.OnProgress = func(done, total int) {
		if done >= total/2 {
			cancel()
		}
	}
	_, err = profileSession(t, ck).Profile(cctx, gpufpx.Program(prog))
	if gpufpx.Classify(err) != gpufpx.KindCanceled && !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled campaign error = %v, want cancellation", err)
	}
	ck.OnProgress = nil
	var resumedFrom int
	ck.OnProgress = func(done, total int) {
		if resumedFrom == 0 {
			resumedFrom = done
		}
	}
	rep, err = profileSession(t, ck).Profile(ctx, gpufpx.Program(prog))
	if err != nil {
		t.Fatalf("resumed campaign: %v", err)
	}
	if got := encodeProfile(t, rep); !bytes.Equal(got, want) {
		t.Errorf("resumed campaign profile differs from uninterrupted run")
	}
	if resumedFrom == 0 {
		t.Errorf("resume started from zero durable trials; checkpoint was not used")
	}

	// The trial plan is seeded from the golden key, which must not depend
	// on the executor tier that ran the campaign.
	restore := device.ForceTierForTest("interp")
	rep, err = profileSession(t, baseCampaign()).Profile(ctx, gpufpx.Program(prog))
	restore()
	if err != nil {
		t.Fatalf("interpreter campaign: %v", err)
	}
	if got := encodeProfile(t, rep); !bytes.Equal(got, want) {
		t.Errorf("reference-interpreter campaign profile differs from production")
	}
}

// TestProfileShadowTool: the shadow sanitizer profiles too (the second
// corpus tool of the acceptance bar).
func TestProfileShadowTool(t *testing.T) {
	s := gpufpx.New(
		gpufpx.WithTool(gpufpx.Shadow(gpufpx.DefaultShadowConfig())),
		gpufpx.WithCycleBudget(1<<24),
		gpufpx.WithCampaign(gpufpx.CampaignConfig{Seed: 7, TrialsPerSite: 3, MaxSites: 6}),
	)
	rep, err := s.Profile(context.Background(), gpufpx.Program("diff-squares"))
	if err != nil {
		t.Fatalf("shadow campaign: %v", err)
	}
	if rep.Tool != "shadow" || rep.Totals.Trials == 0 {
		t.Fatalf("shadow profile: tool=%q totals=%+v", rep.Tool, rep.Totals)
	}
}

// TestProfileRejectsFaultPlan: a session with an enabled chaos plan cannot
// profile — background faults would make trial outcomes unattributable.
func TestProfileRejectsFaultPlan(t *testing.T) {
	s := gpufpx.New(
		gpufpx.WithFaults(gpufpx.DefaultFaultPlan(1)),
		gpufpx.WithCampaign(baseCampaign()),
	)
	_, err := s.Profile(context.Background(), gpufpx.Program("interval"))
	if err == nil || gpufpx.Classify(err) != gpufpx.KindBadSource {
		t.Fatalf("err = %v, want KindBadSource", err)
	}
}

// TestRunLeavesDigestZero: output digesting is a campaign-run behaviour;
// plain Run reports stay unchanged.
func TestRunLeavesDigestZero(t *testing.T) {
	rep, err := gpufpx.New().Run(context.Background(), gpufpx.Program("interval"))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.OutputDigest != 0 {
		t.Fatalf("OutputDigest = %#x on a non-campaign run, want 0", rep.OutputDigest)
	}
}
