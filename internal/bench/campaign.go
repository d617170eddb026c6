package bench

// The SDC vulnerability-profiling campaign artifact (fpx-bench -campaign):
// seeded fault-injection sweeps over a small program corpus, once per
// tool, rendering the per-site AVF table and the headline the campaigns
// exist to measure — how much silent data corruption each tool's
// instrumentation converts into detections. The record is BENCH_7.json at
// the repo root; campaigns are deterministic end to end, so the saved
// record is reproducible byte for byte at the same seed.

import (
	"context"
	"fmt"
	"io"
	"time"

	"gpufpx/pkg/gpufpx"
)

// CampaignSchema versions the BENCH_7.json layout.
const CampaignSchema = 7

// campaignCorpus are the profiled programs: a numerically rich kernel
// (GRAMSCHM), an exception-heavy one (interval) and a cancellation case
// (diff-squares) — enough spread to show coverage contrast, small enough
// to sweep in seconds.
var campaignCorpus = []string{"GRAMSCHM", "interval", "diff-squares"}

// campaignTools are the profiled instrumentations: the exception detector
// and the shadow-precision sanitizer, the two report-bearing tools of the
// acceptance bar.
var campaignTools = []string{"detector", "shadow"}

// CampaignRecord is the schema-7 machine-readable campaign artifact.
type CampaignRecord struct {
	Schema        int             `json:"schema"`
	Seed          uint64          `json:"seed"`
	TrialsPerSite int             `json:"trials_per_site"`
	MaxSites      int             `json:"max_sites"`
	Entries       []CampaignEntry `json:"entries"`
	WallMS        float64         `json:"wall_ms"`
}

// CampaignEntry is one program × tool campaign outcome: the whole-sweep
// histogram plus the AVF and detection-coverage headline.
type CampaignEntry struct {
	Program     string  `json:"program"`
	Tool        string  `json:"tool"`
	Sites       int     `json:"sites"`
	Trials      int     `json:"trials"`
	Masked      int     `json:"masked"`
	SDC         int     `json:"sdc"`
	Detected    int     `json:"detected"`
	Crash       int     `json:"crash"`
	AVF         float64 `json:"avf"`
	Coverage    float64 `json:"coverage"`
	TotalCycles uint64  `json:"total_cycles"`
}

// campaignTool resolves a tool name to its session option.
func campaignTool(name string) gpufpx.Option {
	if name == "shadow" {
		return gpufpx.WithTool(gpufpx.Shadow(gpufpx.DefaultShadowConfig()))
	}
	return gpufpx.WithTool(gpufpx.Detector(gpufpx.DefaultDetectorConfig()))
}

// Campaign sweeps the campaign corpus under both tools and renders the
// per-site resilience table. Workers (the package fan-out knob) fans each
// campaign's trials; the profiles are byte-identical at any worker count.
func Campaign(w io.Writer, seed uint64, trialsPerSite, maxSites int) (*CampaignRecord, error) {
	rec := &CampaignRecord{
		Schema:        CampaignSchema,
		Seed:          seed,
		TrialsPerSite: trialsPerSite,
		MaxSites:      maxSites,
	}
	start := time.Now()
	fmt.Fprintf(w, "SDC vulnerability campaigns (seed %d, %d trials/site, <=%d sites/program)\n\n",
		seed, trialsPerSite, maxSites)
	fmt.Fprintf(w, "%-14s %-9s %6s %7s %7s %6s %9s %6s %7s %9s\n",
		"program", "tool", "sites", "trials", "masked", "sdc", "detected", "crash", "AVF", "coverage")
	for _, prog := range campaignCorpus {
		for _, tool := range campaignTools {
			s := gpufpx.New(
				campaignTool(tool),
				gpufpx.WithCycleBudget(1<<24),
				gpufpx.WithCampaign(gpufpx.CampaignConfig{
					Seed:          seed,
					TrialsPerSite: trialsPerSite,
					MaxSites:      maxSites,
					Workers:       Workers,
				}),
			)
			prof, err := s.Profile(context.Background(), gpufpx.Program(prog))
			if err != nil {
				return nil, fmt.Errorf("bench: campaign %s/%s: %w", prog, tool, err)
			}
			e := CampaignEntry{
				Program:     prog,
				Tool:        tool,
				Sites:       len(prof.Sites),
				Trials:      prof.Totals.Trials,
				Masked:      prof.Totals.Masked,
				SDC:         prof.Totals.SDC,
				Detected:    prof.Totals.Detected,
				Crash:       prof.Totals.Crash,
				AVF:         prof.AVF,
				Coverage:    prof.Coverage,
				TotalCycles: prof.TotalCycles,
			}
			rec.Entries = append(rec.Entries, e)
			fmt.Fprintf(w, "%-14s %-9s %6d %7d %7d %6d %9d %6d %7.3f %9.3f\n",
				e.Program, e.Tool, e.Sites, e.Trials, e.Masked, e.SDC, e.Detected, e.Crash, e.AVF, e.Coverage)
		}
	}
	rec.WallMS = float64(time.Since(start)) / float64(time.Millisecond)

	// The headline: per-tool aggregate detection coverage — the share of
	// non-masked, non-crash corruptions the instrumentation caught.
	fmt.Fprintln(w)
	for _, tool := range campaignTools {
		var sdc, det int
		for _, e := range rec.Entries {
			if e.Tool == tool {
				sdc += e.SDC
				det += e.Detected
			}
		}
		cov := 1.0
		if sdc+det > 0 {
			cov = float64(det) / float64(sdc+det)
		}
		fmt.Fprintf(w, "%-9s overall detection coverage: %.3f (%d detected / %d corrupting trials)\n",
			tool, cov, det, sdc+det)
	}
	fmt.Fprintf(w, "campaign wall time: %.0f ms\n", rec.WallMS)
	return rec, nil
}
