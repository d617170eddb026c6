package serve

// End-to-end coverage of the fused execution tier through the service: jobs
// pinned to "exec": "fused" must report exactly what lowered jobs report,
// round after round, while concurrent workers share the process-wide fused
// programs (this file runs under -race in CI).

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestCheckFusedMatchesLowered(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	for _, prog := range []string{"myocyte", "GRAMSCHM"} {
		code, low, _ := post(t, ts.URL, CheckRequest{Prog: prog, Exec: "lowered", Wait: true})
		if code != http.StatusOK {
			t.Fatalf("%s lowered: status = %d, want 200", prog, code)
		}
		// Several fused rounds: the first builds the fused programs, later
		// ones relaunch the same kernels many times over and must still
		// agree.
		for round := 0; round < 3; round++ {
			code, fused, _ := post(t, ts.URL, CheckRequest{Prog: prog, Exec: "fused", Wait: true})
			if code != http.StatusOK {
				t.Fatalf("%s fused round %d: status = %d, want 200", prog, round, code)
			}
			if fused.Cycles != low.Cycles {
				t.Errorf("%s fused round %d: cycles = %d, lowered = %d",
					prog, round, fused.Cycles, low.Cycles)
			}
			if fused.Detector == nil || low.Detector == nil {
				t.Fatalf("%s round %d: missing detector report", prog, round)
			}
			if len(fused.Detector.Records) != len(low.Detector.Records) {
				t.Errorf("%s fused round %d: %d records, lowered %d",
					prog, round, len(fused.Detector.Records), len(low.Detector.Records))
			}
		}
	}
}

func TestMetricsExportFusedCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for round := 0; round < 2; round++ {
		if code, _, _ := post(t, ts.URL, CheckRequest{Prog: "myocyte", Exec: "fused", Wait: true}); code != http.StatusOK {
			t.Fatalf("fused job: status = %d, want 200", code)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, name := range []string{
		"gpufpx_fused_kernels_total",
		"gpufpx_fused_regions_total",
		"gpufpx_fused_instrs_total",
		"gpufpx_fused_chain_ops_total",
	} {
		if !strings.Contains(body, name+" ") {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if strings.Contains(body, "gpufpx_hot_") {
		t.Errorf("/metrics still exports hot-tier series:\n%s", body)
	}
	// The fused jobs above must have registered at least one fused kernel.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "gpufpx_fused_kernels_total ") {
			if strings.TrimPrefix(line, "gpufpx_fused_kernels_total ") == "0" {
				t.Errorf("fused kernel counter still zero after fused jobs: %s", line)
			}
		}
	}
}
