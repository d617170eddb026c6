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

	s := New(Config{Workers: 2, DefaultCycleBudget: fuzzBudget})
	s.Start()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	h := s.Handler()
	post := func(t *testing.T, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", strings.NewReader(body)))
		}()
		select {
		case <-done:
		case <-time.After(fuzzPatience):
			t.Fatalf("no response within %v", fuzzPatience)
		}
		return rec
	}

	f.Fuzz(func(t *testing.T, body string) {
		// A request's own cycle_budget overrides the server's, so a large
		// one bounds the run by the request, not by the fuzzer's patience.
		var req CheckRequest
		if json.Unmarshal([]byte(body), &req) == nil && req.CycleBudget > fuzzBudget {
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
