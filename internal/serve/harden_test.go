package serve

// Hardening tests for the service path: the worker recover barrier, the
// HTTP mapping of the new taxonomy kinds, client-disconnect cancellation,
// and the service-plane chaos injection.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"gpufpx/pkg/gpufpx"
)

// spinSASS loops forever; only budgets or cancellation end it.
const spinSASS = "L_top:\nFADD R2, R2, R3 ;\nBRA L_top ;\n"

func TestWorkerBarrierContainsPanic(t *testing.T) {
	// A nil session is a stand-in for any harness bug that panics on the
	// worker itself (past the facade's own barrier). Every job kind must
	// finish classified and the internal-error counter must tick — the
	// worker goroutine survives by construction (runJob returned).
	for _, tc := range []struct {
		name string
		job  func() *job
		// check inspects the finished job and the kind's own counters.
		check func(t *testing.T, s *Server, j *job)
	}{
		{"check", func() *job {
			return newJob("j-test", CheckRequest{}, nil, nil)
		}, func(t *testing.T, s *Server, j *job) {
			wantInternal(t, j, "worker panic")
			if got := s.m.failed.Load(); got != 1 {
				t.Errorf("failed = %d, want 1", got)
			}
		}},
		{"batch-item", func() *job {
			j := newJob("b-test", CheckRequest{}, nil, nil)
			j.batch, j.views = []batchItem{{}}, make([]JobView, 1)
			return j
		}, func(t *testing.T, s *Server, j *job) {
			v, _ := j.view()
			if v.Status != StatusDone || len(v.Items) != 1 {
				t.Fatalf("batch = %q with %d items, want done with 1", v.Status, len(v.Items))
			}
			if it := v.Items[0]; it.Status != StatusFailed || it.ErrorKind != gpufpx.KindInternal.String() ||
				!strings.Contains(it.Error, "batch item panic") {
				t.Errorf("item = %q %q %q, want a failed internal batch-item panic", it.Status, it.ErrorKind, it.Error)
			}
			if got := s.m.itemsFailed.Load(); got != 1 {
				t.Errorf("itemsFailed = %d, want 1", got)
			}
		}},
		{"profile", func() *job {
			j := newJob("p-test", CheckRequest{}, nil, nil)
			j.profile = &ProfileRequest{}
			return j
		}, func(t *testing.T, s *Server, j *job) {
			wantInternal(t, j, "worker panic")
			if got := s.m.profilesFailed.Load(); got != 1 {
				t.Errorf("profilesFailed = %d, want 1", got)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{})
			j := tc.job()
			s.runJob(j)
			tc.check(t, s, j)
			if got := s.m.internalErrors.Load(); got != 1 {
				t.Fatalf("internalErrors = %d, want 1", got)
			}
		})
	}
}

// wantInternal fails unless the finished job failed with no report as an
// internal error whose message holds msg.
func wantInternal(t *testing.T, j *job, msg string) {
	t.Helper()
	rep, err := j.outcome()
	if rep != nil || err == nil {
		t.Fatalf("outcome = (%v, %v), want (nil, error)", rep, err)
	}
	if gpufpx.Classify(err) != gpufpx.KindInternal {
		t.Fatalf("err %v classifies as %v, want KindInternal", err, gpufpx.Classify(err))
	}
	if !strings.Contains(err.Error(), msg) {
		t.Fatalf("err = %v, want a %q message", err, msg)
	}
}

func TestFinishIsIdempotent(t *testing.T) {
	j := newJob("j-test", CheckRequest{}, nil, nil)
	j.finish(result{}, fmt.Errorf("first"))
	// A second finish (e.g. a recover path firing after a normal publish)
	// must neither panic on the closed channel nor overwrite the outcome.
	j.finish(result{rep: &gpufpx.Report{}}, nil)
	if _, err := j.outcome(); err == nil || err.Error() != "first" {
		t.Fatalf("outcome overwritten: %v", err)
	}
	if v, _ := j.view(); v.Status != StatusFailed {
		t.Fatalf("status = %q, want failed", v.Status)
	}
}

func TestMalformedSASSMaps422(t *testing.T) {
	// Parseable but invalid SASS (missing operand) must come back as a 422
	// with the bad_source kind — the launch-time validation path.
	_, ts := newTestServer(t, Config{})
	body := `{"sass": "FMUL R2, R3 ;\nEXIT ;", "name": "bad.sass", "wait": true}`
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	var eb struct {
		Kind string `json:"kind"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Kind != "bad_source" {
		t.Fatalf("kind = %q, want bad_source", eb.Kind)
	}
}

func TestResourceFaultMaps507(t *testing.T) {
	// An out-of-bounds access panics in the device, is recovered at the
	// facade as KindResource, and maps to 507.
	_, ts := newTestServer(t, Config{})
	body := `{"sass": "MOV32I R0, 0x7fffff00 ;\nLDG.E R1, [R0] ;\nEXIT ;", "name": "oob.sass", "wait": true}`
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("status = %d, want 507", resp.StatusCode)
	}
}

func TestSyncDisconnectCancelsJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// A spinning job with a budget far beyond the test's patience: only
	// disconnect-driven cancellation can end it promptly.
	req := CheckRequest{SASS: spinSASS, Name: "spin.sass", Wait: true, CycleBudget: 1 << 40}
	payload, _ := json.Marshal(req)
	ctx, cancel := context.WithCancel(context.Background())
	hr, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/check", bytes.NewReader(payload))
	hr.Header.Set("Content-Type", "application/json")

	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(hr)
		errCh <- err
	}()
	// Give the job time to land on a worker, then hang up.
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("expected the canceled request to error")
	}

	// The abandoned job must terminate classified as canceled — not spin
	// forever, not report budget.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/j000001")
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v.Status == StatusFailed {
			if v.ErrorKind != "canceled" {
				t.Fatalf("error_kind = %q, want canceled", v.ErrorKind)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q after disconnect; cancellation not plumbed", v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServicePlaneChaosIsContained(t *testing.T) {
	// Service-plane injection at a high rate: across distinct job keys a
	// fixed seed deterministically yields panics, stalls and slow
	// compiles. Every job must still terminate with an allowed status, at
	// least one injected panic must surface as a 500 with the internal
	// counter ticking, and the daemon must keep serving afterwards.
	_, ts := newTestServer(t, Config{
		Faults: gpufpx.FaultPlan{Seed: 3, Rate: 1e-2, Planes: gpufpx.FaultPlaneService},
	})

	got500 := false
	for i := 0; i < 24; i++ {
		body := fmt.Sprintf(`{"sass": "EXIT ;", "name": "k%02d.sass", "wait": true}`, i)
		resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("job %d: transport error (daemon died?): %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusInternalServerError:
			got500 = true
		default:
			t.Fatalf("job %d: unclassified status %d", i, resp.StatusCode)
		}
	}
	if !got500 {
		t.Fatal("no injected panic surfaced as 500; raise the key count or rate")
	}

	// The pool survived: a clean job still succeeds and the counter moved.
	resp, err := http.Post(ts.URL+"/v1/check", "application/json",
		strings.NewReader(`{"prog": "myocyte", "wait": true}`))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos job: %v status %v", err, resp.StatusCode)
	}
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"gpufpx_serve_internal_errors_total",
		"gpufpx_fault_injected_service_total",
	} {
		if !strings.Contains(string(mb), want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
	if strings.Contains(string(mb), "gpufpx_serve_internal_errors_total 0\n") {
		t.Fatal("internal-errors counter did not move")
	}
}
