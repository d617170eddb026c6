package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"slices"
	"testing"
)

// TestRepliesCarryContentLength checks that every JSON reply states its
// length instead of going out chunked: a check encoded now, the same check
// served from held bytes, a poll of it, and an error. GRAMSCHM's analyzer
// view is about 17.5 KB, well past the size at which an unsized reply is
// chunked.
func TestRepliesCarryContentLength(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	check, err := json.Marshal(CheckRequest{Prog: "GRAMSCHM", Tool: "analyzer", Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	var id string
	for _, tc := range []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"first check", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(check))
		}, http.StatusOK},
		{"reused check", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(check))
		}, http.StatusOK},
		{"poll", func() (*http.Response, error) { return http.Get(ts.URL + "/v1/jobs/" + id) }, http.StatusOK},
		{"error", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader([]byte(`{"prog":"x","sass":"EXIT ;"}`)))
		}, http.StatusBadRequest},
	} {
		resp, err := tc.do()
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.want, body)
		}
		if resp.ContentLength != int64(len(body)) || slices.Contains(resp.TransferEncoding, "chunked") {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body", tc.name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if tc.want == http.StatusOK {
			var v JobView
			if err := json.Unmarshal(body, &v); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			id = v.ID
		}
	}
}

// TestFinishedJobReleasesInputs checks that a finished check and a finished
// batch, still pollable, hold no request, session or source.
func TestFinishedJobReleasesInputs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	code, v, eb := post(t, ts.URL, CheckRequest{SASS: "FADD R1, R2, R3 ;\nEXIT ;", Name: "held.sass", Wait: true})
	if code != http.StatusOK {
		t.Fatalf("check: status %d (%s)", code, eb.Error)
	}
	body, err := json.Marshal(BatchRequest{Wait: true, Items: []CheckRequest{
		{SASS: "EXIT ;", Name: "a.sass"}, {Prog: "BICG", Tool: "plain"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var bv JobView
	err = json.NewDecoder(resp.Body).Decode(&bv)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, %v", resp.StatusCode, err)
	}
	for _, id := range []string{v.ID, bv.ID} {
		got, ok := s.jobs.Load(id)
		if !ok {
			t.Fatalf("job %s is not pollable", id)
		}
		j := got.(*job)
		<-j.done
		j.mu.Lock()
		held := !reflect.ValueOf(j.req).IsZero() || j.session != nil || j.source != nil
		for _, it := range j.batch {
			held = held || !reflect.ValueOf(it).IsZero()
		}
		j.mu.Unlock()
		if held {
			t.Errorf("finished job %s still holds its inputs", id)
		}
	}
}
