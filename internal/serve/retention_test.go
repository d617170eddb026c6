package serve

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"
)

// TestFinishedJobsBounded drives more than maxFinishedJobs distinct
// requests through one server: the job table and the reuse index must stop
// growing at the bound, the oldest job must be forgotten (404) and its key
// must miss, and the newest must stay pollable (200) and reusable.
func TestFinishedJobsBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	request := func(i int) CheckRequest {
		return CheckRequest{SASS: "EXIT ;", Name: fmt.Sprintf("exit%d", i), Tool: "plain", Wait: true}
	}
	const n = maxFinishedJobs + 16
	var first, last string
	for i := 0; i < n; i++ {
		code, v, eb := post(t, ts.URL, request(i))
		if code != http.StatusOK {
			t.Fatalf("request %d: status = %d (%s), want 200", i, code, eb.Error)
		}
		if i == 0 {
			first = v.ID
		}
		last = v.ID
	}
	// Drain waits for the workers to exit, so every finished job has been
	// retired before the table is inspected.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	held := 0
	s.jobs.Range(func(_, _ any) bool {
		held++
		return true
	})
	if held != maxFinishedJobs {
		t.Errorf("job table holds %d jobs after %d requests, want %d", held, n, maxFinishedJobs)
	}
	if keys := indexLen(s); keys > maxFinishedJobs {
		t.Errorf("reuse index holds %d keys after %d requests, want at most %d", keys, n, maxFinishedJobs)
	}
	for i, want := range map[int]bool{0: false, n - 1: true} {
		j := &job{key: request(i).key(0), keyed: true, ctx: context.Background()}
		if got := s.reusable(j) != nil; got != want {
			t.Errorf("request %d: reusable = %v after eviction of the first %d jobs, want %v", i, got, n-maxFinishedJobs, want)
		}
	}
	for _, tc := range []struct {
		id   string
		want int
	}{{first, http.StatusNotFound}, {last, http.StatusOK}} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + tc.id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET /v1/jobs/%s: status = %d, want %d", tc.id, resp.StatusCode, tc.want)
		}
	}
}
