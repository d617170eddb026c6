package main

// The campaign layer: the six SDC campaigns of the schema-7 record —
// {GRAMSCHM, interval, diff-squares} × {detector, shadow} — through
// Session.Profile at the product default of sequential trials, each
// campaign checkpointing into a fresh directory. The traced run's campaign
// probe (probes.go) runs them; thousands of tiny faulted runs make per-run
// set-up and allocation dominate, the opposite of paper-repro.

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"gpufpx/pkg/gpufpx"
)

// The campaign plan: the schema-7 corpus, tools and sizes.
var (
	campaignProgs = []string{"GRAMSCHM", "interval", "diff-squares"}
	campaignTools = []string{"detector", "shadow"}
)

// campaignSites is the number of strikeable sites each subject's campaign
// profiles under either tool, as BENCH_7.json records them: the golden
// run's site census capped at campaignMaxSites. It does not depend on the
// campaign seed, so one pass over the plan is always 1168 trials.
var campaignSites = map[string]int{"GRAMSCHM": 32, "interval": 32, "diff-squares": 9}

const (
	campaignTrialsPerSite = 8
	campaignMaxSites      = 32
	campaignCycleBudget   = 1 << 24
)

// campaignSession builds the session one campaign runs under. Workers is
// left at its default (sequential trials).
func campaignSession(tool string, seed uint64, dir string) (*gpufpx.Session, error) {
	t, err := gpufpx.ParseTool(tool)
	if err != nil {
		return nil, err
	}
	return gpufpx.New(
		gpufpx.WithTool(t),
		gpufpx.WithCycleBudget(campaignCycleBudget),
		gpufpx.WithCampaign(gpufpx.CampaignConfig{
			Seed:          seed,
			TrialsPerSite: campaignTrialsPerSite,
			MaxSites:      campaignMaxSites,
			Dir:           dir,
		}),
	), nil
}

// checkProfile verifies one campaign's profile of prog: it profiled the
// subject's pinned site count, its trial total matches the plan (sites ×
// trials per site, and the per-site sum), and its bytes equal the
// reference from an earlier pass (nil: no reference yet).
func checkProfile(prog string, prof *gpufpx.ProfileReport, enc, ref []byte) error {
	sites, ok := campaignSites[prog]
	if !ok {
		return fmt.Errorf("%s: no pinned site count", prog)
	}
	plan := sites * campaignTrialsPerSite
	sum := 0
	for _, s := range prof.Sites {
		sum += s.Trials
	}
	switch {
	case len(prof.Sites) != sites:
		return fmt.Errorf("%s: %d sites profiled, want %d", prog, len(prof.Sites), sites)
	case prof.Totals.Trials != plan || sum != plan:
		return fmt.Errorf("%s: totals.trials %d (sites sum %d), plan %d", prog, prof.Totals.Trials, sum, plan)
	case ref != nil && !bytes.Equal(enc, ref):
		return fmt.Errorf("%s: profile bytes differ from the first pass", prog)
	}
	return nil
}

// campaignResult is what one campaign of a pass produced.
type campaignResult struct {
	prof         *gpufpx.ProfileReport
	enc          []byte
	checkpointKB float64
}

// runOneCampaign profiles one (program, tool) into a fresh checkpoint
// directory under tmp, removed before returning.
func runOneCampaign(prog, tool string, seed uint64, tmp string) (campaignResult, error) {
	var res campaignResult
	dir, err := os.MkdirTemp(tmp, "campaign-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	sess, err := campaignSession(tool, seed, dir)
	if err != nil {
		return res, err
	}
	prof, err := sess.Profile(context.Background(), gpufpx.Program(prog))
	if err != nil {
		return res, fmt.Errorf("%s/%s: %w", prog, tool, err)
	}
	var buf bytes.Buffer
	if err := gpufpx.EncodeProfileReport(&buf, prof); err != nil {
		return res, err
	}
	res.prof, res.enc = prof, buf.Bytes()
	res.checkpointKB, err = dirKB(dir)
	return res, err
}

// dirKB sums the sizes of the regular files under dir.
func dirKB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return float64(total) / 1024, err
}

// campaignSeed derives the campaign seed from the workload seed.
func campaignSeed(seed uint64) uint64 {
	r := splitmix64(seed)
	return r.next()
}
