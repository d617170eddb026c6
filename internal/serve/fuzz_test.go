package serve

// FuzzCheck drives arbitrary bytes through POST /v1/check — the strict
// JSON decoder, request validation, the queue, a worker, the facade and
// the report encoder — and asserts the wire contract: every body gets a
// 200, a 202, a 400, or a job failure mapped through the error taxonomy,
// never a 500 or a panic. A 200 body posted again must come back with the
// same bytes apart from the job id, whether the repeat reuses the first
// job's report or runs again.
//
// The seeds are the request bodies of the service tests.
// testdata/fuzz/FuzzCheck holds regression inputs; `go test` replays
// seeds and corpus without -fuzz.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fuzzBudget is the server's default cycle budget under fuzzing: small, so
// iterations stay fast while still reaching the executor.
const fuzzBudget = 200_000

// fuzzPatience bounds one request: with the budget above, every run ends
// in milliseconds, so a request still open after this long is a hang.
const fuzzPatience = 20 * time.Second

func FuzzCheck(f *testing.F) {
	for _, seed := range []string{
		`{"prog": "myocyte", "wait": true}`,
		`{"prog": "GRAMSCHM", "tool": "analyzer", "wait": true}`,
		`{"prog": "quad-root", "tool": "shadow", "tool_config": {"sig_bits": 8, "cancel_bits": 4, "max_findings_per_site": 2}, "wait": true}`,
		`{"prog": "myocyte", "fixed": true, "fastmath": true, "demote_f64": true, "arch": "turing", "kernels": ["k"], "freq": 2, "wait": true}`,
		`{"prog": "libor", "tool": "binfpe", "wait": true}`,
		`{"prog": "myocyte", "tool": "memcheck", "wait": true}`,
		`{"sass": "FADD R2, RZ, -QNAN ;\nEXIT ;", "name": "nan.sass", "wait": true}`,
		`{"sass": "EXIT ;", "name": "k00.sass", "tool": "plain", "grid": 2, "block": 64, "wait": true}`,
		`{"sass": "L_top:\nFADD R2, R2, R3 ;\nBRA L_top ;\n", "name": "spin.sass", "wait": true}`,
		`{"sass": "MOV32I R0, 0x7fffff00 ;\nLDG.E R1, [R0] ;\nEXIT ;\n", "wait": true}`,
		`{"sass": "EXIT ;", "block": 2048, "wait": true}`,
		`{"prog": "GRAMSCHM", "tool_config": {"verbose": true}, "cycle_budget": 1, "wait": true}`,
		`{"prog": "GRAMSCHM"}`,
		// Admission-time and job-time rejections.
		`{"prog": "no-such", "wait": true}`,
		`{"sass": "NOT AN OPCODE ;\n", "wait": true}`,
		`{"prog": "myocyte", "tool": "binfpe", "tool_config": {"verbose": true}}`,
		`{"prog": "myocyte", "sass": "EXIT ;"}`,
		`{"prog": "myocyte", "tool": "phrenology"}`,
		`{"prog": "myocyte", "arch": "volta"}`,
		`{"prog": "myocyte", "analyzer": true}`,
		`{"prog": "myocyte", "grdi": 4}`,
		`{"prog": "myocyte", "exec": "fused"}`,
		`{}`,
		`{nope`,
		``,
	} {
		f.Add(seed)
	}

	s := fuzzServer(f)
	h := s.Handler()
	post := func(t *testing.T, body string) *httptest.ResponseRecorder {
		return fuzzPost(t, h, "/v1/check", body)
	}

	f.Fuzz(func(t *testing.T, body string) {
		// A request's own cycle_budget overrides the server's, so a large
		// one bounds the run by the request, not by the fuzzer's patience.
		var req CheckRequest
		if decodeBody([]byte(body), &req) == nil && req.CycleBudget > fuzzBudget {
			t.Skip("cycle_budget above the fuzzing budget")
		}
		rec := post(t, body)
		checkOutcome(t, rec)
		switch rec.Code {
		case http.StatusAccepted:
			// Wait the async job out so jobs do not pile up across inputs.
			id, _ := splitID(t, rec.Body.Bytes())
			if v, ok := s.jobs.Load(id); ok {
				<-v.(*job).done
			}
			return
		case http.StatusOK:
		default:
			return
		}
		again := post(t, body)
		if again.Code != http.StatusOK {
			t.Fatalf("first post 200, repeat %d: %s", again.Code, again.Body)
		}
		id1, tail1 := splitID(t, rec.Body.Bytes())
		id2, tail2 := splitID(t, again.Body.Bytes())
		if id1 == id2 || !bytes.Equal(tail1, tail2) {
			t.Fatalf("repeat differs apart from the id:\n%s\n%s", rec.Body, again.Body)
		}
	})
}

// fuzzServer starts a server for a fuzz target and drains it when the
// target ends.
func fuzzServer(f *testing.F) *Server {
	s := New(Config{Workers: 2, DefaultCycleBudget: fuzzBudget})
	s.Start()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

// fuzzPost posts body to path, failing when no response comes within
// fuzzPatience.
func fuzzPost(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	}()
	select {
	case <-done:
	case <-time.After(fuzzPatience):
		t.Fatalf("no response within %v", fuzzPatience)
	}
	return rec
}

// checkOutcome fails on any response outside the wire contract.
func checkOutcome(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	switch rec.Code {
	case http.StatusOK, http.StatusAccepted:
		var v JobView
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || v.ID == "" {
			t.Fatalf("status %d with a body that is no job view (%v): %s", rec.Code, err, rec.Body)
		}
		if rec.Code == http.StatusOK && v.Status != StatusDone {
			t.Fatalf("200 for a job in status %q", v.Status)
		}
		return
	case http.StatusBadRequest:
		// Admission rejections carry a message and no job kind.
	case http.StatusNotFound, http.StatusUnprocessableEntity, http.StatusRequestTimeout,
		http.StatusGatewayTimeout, http.StatusInsufficientStorage:
		// Job failures of the request's own making, mapped by kind:
		// unknown program, bad source or compile error, budget, hang, and
		// the simulated device's memory.
	default:
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("status %d without a typed error body (%v): %s", rec.Code, err, rec.Body)
	}
	if (rec.Code == http.StatusBadRequest) != (e.Kind == "") {
		t.Fatalf("status %d with error kind %q: %s", rec.Code, e.Kind, rec.Body)
	}
}

// finishedView returns the finished job view behind a response that
// passed checkOutcome: a 200's body, or a 202's job once it finishes
// within fuzzPatience. ok is false for any other status.
func finishedView(t *testing.T, s *Server, rec *httptest.ResponseRecorder) (v JobView, ok bool) {
	t.Helper()
	switch rec.Code {
	case http.StatusOK:
		_ = json.Unmarshal(rec.Body.Bytes(), &v) // checkOutcome decoded it already
	case http.StatusAccepted:
		id, _ := splitID(t, rec.Body.Bytes())
		jv, held := s.jobs.Load(id)
		if !held {
			t.Fatalf("202 for job %s the server does not hold", id)
		}
		j := jv.(*job)
		select {
		case <-j.done:
		case <-time.After(fuzzPatience):
			t.Fatalf("job %s not finished within %v", id, fuzzPatience)
		}
		v, _ = j.view()
	default:
		return v, false
	}
	return v, true
}

// FuzzBatch drives arbitrary bytes through POST /v1/batch under
// FuzzCheck's rules: every body gets a 200 or 202 batch view, or a typed
// 4xx, never a 500 or a panic. A finished batch is done with one view per
// item, and each item either carries its report or failed with a kind of
// the request's own making; an internal or unclassified item failure is
// a finding.
//
// The seeds are the batch request bodies of the service tests.
// testdata/fuzz/FuzzBatch holds regression inputs.
func FuzzBatch(f *testing.F) {
	for _, seed := range []string{
		`{"items": [{"prog": "myocyte"}, {"prog": "GRAMSCHM", "tool": "analyzer"}, {"prog": "libor", "fastmath": true}], "wait": true}`,
		`{"items": [{"prog": "myocyte"}, {"prog": "GRAMSCHM"}]}`,
		`{"items": [{"prog": "myocyte"}, {"prog": "GRAMSCHM", "tool": "analyzer"}, {"prog": "libor"}]}`,
		`{"items": [{"prog": "myocyte"}, {"prog": "GRAMSCHM", "analyzer": true}], "wait": true}`,
		`{"items": [{"prog": "myocyte"}, {"prog": "x", "tool": "nope"}]}`,
		`{"items": null}`,
		// Items that fail at run time, each with its own kind.
		`{"items": [{"prog": "no-such"}, {"sass": "FADD R2, RZ, -QNAN ;\nEXIT ;", "name": "nan.sass"}], "wait": true}`,
		`{"items": [{"sass": "L_top:\nFADD R2, R2, R3 ;\nBRA L_top ;\n"}, {"sass": "MOV32I R0, 0x7fffff00 ;\nLDG.E R1, [R0] ;\nEXIT ;\n"}], "wait": true}`,
		`{"items": [{"sass": "FMUL R2, R3 ;\nEXIT ;"}, {"prog": "GRAMSCHM", "cycle_budget": 1}], "wait": true}`,
		`{"items": [{"sass": "EXIT ;", "tool": "plain", "grid": 2, "block": 64}], "wait": true}`,
		`{"items": [{}], "wait": true}`,
		`{"items": [], "wait": true}`,
		`{"items": [{"prog": "myocyte", "wait": true}], "extra": 1}`,
		`{nope`,
		``,
	} {
		f.Add(seed)
	}

	s := fuzzServer(f)
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body string) {
		// As in FuzzCheck, a request's own cycle_budget bounds its run; a
		// long batch is bounded by its length. Either may outlast the
		// fuzzer's patience, so neither is a finding.
		var req BatchRequest
		if decodeBody([]byte(body), &req) == nil {
			if len(req.Items) > 16 && len(req.Items) <= maxBatchItems {
				t.Skip("batch too long to finish within the fuzzer's patience")
			}
			for _, it := range req.Items {
				if it.CycleBudget > fuzzBudget {
					t.Skip("cycle_budget above the fuzzing budget")
				}
			}
		}
		rec := fuzzPost(t, h, "/v1/batch", body)
		checkOutcome(t, rec)
		if v, ok := finishedView(t, s, rec); ok {
			checkBatchItems(t, v, len(req.Items))
		}
	})
}

// checkBatchItems fails on a finished batch view outside the wire
// contract: the batch is done with n item views, and each item either
// carries a report or failed with a kind of the request's own making.
func checkBatchItems(t *testing.T, v JobView, n int) {
	t.Helper()
	if v.Status != StatusDone || len(v.Items) != n {
		t.Fatalf("batch %s finished %q with %d items, want done with %d", v.ID, v.Status, len(v.Items), n)
	}
	for i, it := range v.Items {
		switch it.Status {
		case StatusDone:
			if it.Error != "" || it.ErrorKind != "" {
				t.Fatalf("item %d done with an error: %+v", i, it)
			}
		case StatusFailed:
			switch it.ErrorKind {
			case "unknown_program", "bad_source", "compile", "hang", "budget", "resource":
			default:
				t.Fatalf("item %d failed with kind %q: %s", i, it.ErrorKind, it.Error)
			}
			if it.Error == "" {
				t.Fatalf("item %d failed without an error message", i)
			}
		default:
			t.Fatalf("item %d in status %q", i, it.Status)
		}
	}
}

// FuzzProfile drives arbitrary bytes through POST /v1/profile under
// FuzzCheck's rules: every body gets a 200 or 202 profile view, or a typed
// 4xx, never a 500, a panic or a hang. A finished campaign is done with a
// profile, or failed with a kind of the request's own making.
//
// The seeds are the profile request bodies of the service tests, with
// their trial counts cut so each campaign runs in well under a second.
// testdata/fuzz/FuzzProfile holds regression inputs.
func FuzzProfile(f *testing.F) {
	for _, seed := range []string{
		`{"prog": "interval", "seed": 7, "trials_per_site": 2, "max_sites": 4, "wait": true}`,
		`{"prog": "interval", "seed": 7, "trials_per_site": 2, "max_sites": 4}`,
		`{"prog": "GRAMSCHM", "seed": 5, "trials_per_site": 1, "max_sites": 4}`,
		`{"prog": "interval", "tool": "analyzer", "trials_per_site": 1, "max_sites": 2, "wait": true}`,
		`{"sass": "FADD R2, RZ, -QNAN ;\nEXIT ;", "name": "nan.sass", "trials_per_site": 2, "max_sites": 2, "wait": true}`,
		`{"sass": "L_top:\nFADD R2, R2, R3 ;\nBRA L_top ;\n", "trials_per_site": 1, "max_sites": 1, "wait": true}`,
		`{"prog": "interval", "cycle_budget": 1, "trials_per_site": 1, "max_sites": 1, "wait": true}`,
		// Admission-time and job-time rejections.
		`{"prog": "interval", "trials_per_site": 65}`,
		`{"prog": "interval", "max_sites": 257}`,
		`{"prog": "interval", "trials_per_site": -1}`,
		`{"prog": "no-such", "trials_per_site": 1, "max_sites": 1, "wait": true}`,
		`{"prog": "interval", "tool": "binfpe", "tool_config": {"verbose": true}}`,
		`{"prog": "interval", "seed": -1}`,
		`{"prog": "interval", "analyzer": true}`,
		`{"prog": "interval"}}`,
		`{nope`,
		``,
	} {
		f.Add(seed)
	}

	s := fuzzServer(f)
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body string) {
		// As in FuzzCheck, a request's own cycle_budget bounds its runs.
		var req ProfileRequest
		if decodeBody([]byte(body), &req) == nil && req.CycleBudget > fuzzBudget {
			t.Skip("cycle_budget above the fuzzing budget")
		}
		rec := fuzzPost(t, h, "/v1/profile", body)
		checkOutcome(t, rec)
		v, ok := finishedView(t, s, rec)
		if !ok {
			return
		}
		switch v.Status {
		case StatusDone:
			if v.Profile == nil {
				t.Fatalf("campaign %s done without a profile", v.ID)
			}
		case StatusFailed:
			switch v.ErrorKind {
			case "unknown_program", "bad_source", "compile", "hang", "budget", "resource":
			default:
				t.Fatalf("campaign %s failed with kind %q: %s", v.ID, v.ErrorKind, v.Error)
			}
		default:
			t.Fatalf("campaign %s finished in status %q", v.ID, v.Status)
		}
	})
}
