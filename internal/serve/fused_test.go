package serve

// End-to-end coverage of the production (fused) executor through the
// service: concurrent jobs relaunch the same kernels on the one program each
// kernel owns, and every round must report exactly what the first job
// reported (this file runs under -race in CI).

import (
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCheckProductionRoundsAgree(t *testing.T) {
	const workers = 4
	_, ts := newTestServer(t, Config{Workers: workers})
	for _, prog := range []string{"myocyte", "GRAMSCHM"} {
		code, first, _ := post(t, ts.URL, CheckRequest{Prog: prog, Wait: true})
		if code != http.StatusOK || first.Detector == nil {
			t.Fatalf("%s: status = %d, detector report %v", prog, code, first.Detector != nil)
		}
		for round := 0; round < 3; round++ {
			var views [workers]JobView
			var codes [workers]int
			var wg sync.WaitGroup
			for i := range views {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					codes[i], views[i], _ = post(t, ts.URL, CheckRequest{Prog: prog, Wait: true})
				}(i)
			}
			wg.Wait()
			for i, v := range views {
				if codes[i] != http.StatusOK {
					t.Fatalf("%s round %d job %d: status = %d, want 200", prog, round, i, codes[i])
				}
				if v.Cycles != first.Cycles {
					t.Errorf("%s round %d job %d: cycles = %d, first job %d", prog, round, i, v.Cycles, first.Cycles)
				}
				if !reflect.DeepEqual(v.Detector, first.Detector) {
					t.Errorf("%s round %d job %d: detector report differs from the first job's", prog, round, i)
				}
			}
		}
	}
}

func TestMetricsExportFusedCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for round := 0; round < 2; round++ {
		if code, _, _ := post(t, ts.URL, CheckRequest{Prog: "myocyte", Wait: true}); code != http.StatusOK {
			t.Fatalf("job: status = %d, want 200", code)
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
	} {
		if !strings.Contains(body, name+" ") {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if strings.Contains(body, "gpufpx_hot_") {
		t.Errorf("/metrics still exports hot-tier series:\n%s", body)
	}
	// The jobs above must have registered at least one fused kernel.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "gpufpx_fused_kernels_total ") {
			if strings.TrimPrefix(line, "gpufpx_fused_kernels_total ") == "0" {
				t.Errorf("fused kernel counter still zero after jobs: %s", line)
			}
		}
	}
}
