package serve

// End-to-end service tests over httptest: the synchronous and asynchronous
// check flows, the HTTP mapping of the error taxonomy, queue backpressure,
// deterministic job timeouts, graceful drain, and a 64-client concurrent
// load (meaningful under -race: jobs share the compile cache and each
// kernel's program).

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gpufpx/pkg/gpufpx"
)

// newTestServer starts a server and its worker pool on an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

// post sends one check request and decodes the response.
func post(t *testing.T, url string, req CheckRequest) (int, JobView, errorBody) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	var e errorBody
	if resp.StatusCode < 400 {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
	} else if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("decoding error body %s: %v", raw, err)
	}
	return resp.StatusCode, v, e
}

func TestCheckDetectorSync(t *testing.T) {
	for _, prog := range []string{"myocyte", "GRAMSCHM"} {
		prog := prog
		t.Run(prog, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: 2})
			code, v, _ := post(t, ts.URL, CheckRequest{Prog: prog, Wait: true})
			if code != http.StatusOK {
				t.Fatalf("status = %d, want 200", code)
			}
			if v.Status != StatusDone || v.Tool != "detector" {
				t.Fatalf("job = %+v, want done detector", v)
			}
			if v.Detector == nil {
				t.Fatal("no detector report in response")
			}
			if v.Detector.Schema != gpufpx.DetectorSchemaVersion {
				t.Errorf("schema = %d, want %d", v.Detector.Schema, gpufpx.DetectorSchemaVersion)
			}
			// The service must agree exactly with a local facade run.
			local, err := gpufpx.New().Run(context.Background(), gpufpx.Program(prog))
			if err != nil {
				t.Fatal(err)
			}
			if v.Cycles != local.Cycles {
				t.Errorf("served cycles = %d, local = %d", v.Cycles, local.Cycles)
			}
			if len(v.Detector.Records) != len(local.Detector.Records) {
				t.Errorf("served %d records, local %d", len(v.Detector.Records), len(local.Detector.Records))
			}
		})
	}
}

func TestCheckAnalyzerSync(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, prog := range []string{"myocyte", "GRAMSCHM"} {
		code, v, _ := post(t, ts.URL, CheckRequest{Prog: prog, Tool: "analyzer", Wait: true})
		if code != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200", prog, code)
		}
		if v.Analyzer == nil {
			t.Fatalf("%s: no analyzer report", prog)
		}
		if v.Analyzer.Schema != gpufpx.AnalyzerSchemaVersion {
			t.Errorf("%s: analyzer schema = %d, want %d", prog, v.Analyzer.Schema, gpufpx.AnalyzerSchemaVersion)
		}
		if v.Detector != nil {
			t.Errorf("%s: analyzer job carries a detector report", prog)
		}
	}
}

func TestCheckSASSReportsNaN(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, v, _ := post(t, ts.URL, CheckRequest{
		Name: "nan.sass",
		SASS: "FADD R2, RZ, -QNAN ;\nEXIT ;\n",
		Wait: true,
	})
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if v.Detector == nil || len(v.Detector.Records) == 0 {
		t.Fatalf("no records: %+v", v)
	}
	if v.Detector.Records[0].Exception != "NaN" {
		t.Errorf("exception = %q, want NaN", v.Detector.Records[0].Exception)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, v, _ := post(t, ts.URL, CheckRequest{Prog: "myocyte"})
	if code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", code)
	}
	if v.ID == "" || (v.Status != StatusQueued && v.Status != StatusRunning) {
		t.Fatalf("accepted job = %+v", v)
	}
	// Poll to completion.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		var jv JobView
		if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if jv.Status == StatusDone {
			if jv.Detector == nil {
				t.Fatal("done job has no report")
			}
			break
		}
		if jv.Status == StatusFailed {
			t.Fatalf("job failed: %s", jv.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", jv.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Unknown job ids are 404.
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  CheckRequest
		want int
		kind string
	}{
		{"unknown program", CheckRequest{Prog: "no-such", Wait: true}, http.StatusNotFound, "unknown_program"},
		{"bad sass", CheckRequest{SASS: "NOT AN OPCODE ;\n", Wait: true}, http.StatusUnprocessableEntity, "bad_source"},
		{"budget", CheckRequest{Prog: "myocyte", CycleBudget: 1, Wait: true}, http.StatusRequestTimeout, "budget"},
	}
	for _, c := range cases {
		code, _, e := post(t, ts.URL, c.req)
		if code != c.want {
			t.Errorf("%s: status = %d, want %d (%+v)", c.name, code, c.want, e)
		}
		if e.Kind != c.kind {
			t.Errorf("%s: kind = %q, want %q", c.name, e.Kind, c.kind)
		}
	}

	// Admission-time 400s: both sources, no source, unknown tool, bad JSON.
	for name, body := range map[string]string{
		"both sources": `{"prog": "myocyte", "sass": "EXIT ;"}`,
		"no source":    `{}`,
		"unknown tool": `{"prog": "myocyte", "tool": "phrenology"}`,
		"bad json":     `{nope`,
		"unknown key":  `{"prog": "myocyte", "grdi": 4}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestJobTimeoutIsDeterministic(t *testing.T) {
	// The same budget fails the same way every time — the service's
	// "timeout" is simulated work, not wall clock.
	_, ts := newTestServer(t, Config{Workers: 2, DefaultCycleBudget: 1})
	for i := 0; i < 3; i++ {
		code, _, e := post(t, ts.URL, CheckRequest{Prog: "GRAMSCHM", Wait: true})
		if code != http.StatusRequestTimeout || e.Kind != "budget" {
			t.Fatalf("run %d: status=%d kind=%q, want 408/budget", i, code, e.Kind)
		}
	}
	// A per-job budget overrides the server default upward.
	code, v, e := post(t, ts.URL, CheckRequest{Prog: "GRAMSCHM", CycleBudget: 1 << 30, Wait: true})
	if code != http.StatusOK {
		t.Fatalf("generous per-job budget: status=%d (%+v)", code, e)
	}
	if v.Status != StatusDone {
		t.Fatalf("job = %+v, want done", v)
	}
}

func TestQueueFull429(t *testing.T) {
	// No workers: admission is the only consumer, so the queue fills
	// deterministically.
	s := New(Config{QueueDepth: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	enqueue := func() int {
		body, _ := json.Marshal(CheckRequest{Prog: "myocyte"})
		resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	for i := 0; i < 2; i++ {
		if code := enqueue(); code != http.StatusAccepted {
			t.Fatalf("enqueue %d: status = %d, want 202", i, code)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/check", "application/json",
		strings.NewReader(`{"prog": "myocyte"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	// Draining the never-started pool: start workers now so Cleanup-free
	// teardown still runs the queued jobs to completion.
	s.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 2})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Queue a few jobs, then drain: every admitted job must finish.
	var ids []string
	for i := 0; i < 4; i++ {
		code, v, _ := post(t, ts.URL, CheckRequest{Prog: "myocyte"})
		if code != http.StatusAccepted {
			t.Fatalf("enqueue: status = %d", code)
		}
		ids = append(ids, v.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// After drain: health says draining (503) and admission answers 503.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain = %d, want 503", resp.StatusCode)
	}
	code, _, e := post(t, ts.URL, CheckRequest{Prog: "myocyte", Wait: true})
	if code != http.StatusServiceUnavailable {
		t.Errorf("admission after drain = %d (%+v), want 503", code, e)
	}
	// Every job admitted before the drain ran to completion.
	for _, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jv JobView
		if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if jv.Status != StatusDone {
			t.Errorf("job %s after drain = %s, want done", id, jv.Status)
		}
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthBody
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, h)
	}

	// Run one job so the counters move, then scrape.
	if code, _, _ := post(t, ts.URL, CheckRequest{Prog: "myocyte", Wait: true}); code != http.StatusOK {
		t.Fatalf("warmup job status = %d", code)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"gpufpx_serve_jobs_accepted_total",
		"gpufpx_serve_jobs_completed_total",
		"gpufpx_serve_queue_depth",
		"gpufpx_compile_cache_hits_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s:\n%s", want, text)
		}
	}
}

func TestConcurrentChecks(t *testing.T) {
	// 64 synchronous clients against a small pool: exercises the shared
	// compile cache, the queue, and every job's private device under -race.
	_, ts := newTestServer(t, Config{QueueDepth: 64, Workers: 4})
	progsList := []string{"myocyte", "GRAMSCHM"}
	var wg sync.WaitGroup
	codes := make([]int, 64)
	views := make([]JobView, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(CheckRequest{Prog: progsList[i%2], Wait: true})
			resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
			if err != nil {
				codes[i] = -1
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				json.NewDecoder(resp.Body).Decode(&views[i])
			} else {
				io.Copy(io.Discard, resp.Body)
			}
		}(i)
	}
	wg.Wait()

	// With queue 64 ≥ clients, every request must succeed, and identical
	// programs must report identical cycle counts — full determinism under
	// concurrency.
	wantCycles := map[string]uint64{}
	for _, p := range progsList {
		rep, err := gpufpx.New().Run(context.Background(), gpufpx.Program(p))
		if err != nil {
			t.Fatal(err)
		}
		wantCycles[p] = rep.Cycles
	}
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("client %d: status = %d, want 200", i, code)
		}
		p := progsList[i%2]
		if views[i].Cycles != wantCycles[p] {
			t.Errorf("client %d (%s): cycles = %d, want %d", i, p, views[i].Cycles, wantCycles[p])
		}
	}
}

// TestWaitersSurviveClientDisconnect pins the detached-client path: a
// synchronous waiter that disconnects leaves the job running and pollable.
func TestWaitersSurviveClientDisconnect(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(CheckRequest{Prog: "myocyte", Wait: true})
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/check", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
	}
	// The job either finished before the cancel or keeps running; either
	// way the server must stay healthy and serve the next request.
	code, _, _ := post(t, ts.URL, CheckRequest{Prog: "myocyte", Wait: true})
	if code != http.StatusOK {
		t.Fatalf("post-disconnect request: status = %d, want 200", code)
	}
}
