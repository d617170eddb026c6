package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// BenchmarkCheckReuseHit posts a held analyzer check through an httptest
// server once per op: decode, key, queue, reuse hit and the synchronous
// reply. BICG's analyzer view is about 0.5 KB and GRAMSCHM's 17.5 KB,
// so B/op that grows from one to the other is work that scales with the
// held report; body-B is the reply's size.
func BenchmarkCheckReuseHit(b *testing.B) {
	for _, prog := range []string{"BICG", "GRAMSCHM"} {
		b.Run(prog, func(b *testing.B) {
			s := New(Config{Workers: 1})
			s.Start()
			ts := httptest.NewServer(s.Handler())
			defer func() {
				ts.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				s.Drain(ctx)
			}()
			payload, err := json.Marshal(CheckRequest{Prog: prog, Tool: "analyzer", Wait: true})
			if err != nil {
				b.Fatal(err)
			}
			client := ts.Client()
			post := func() int64 {
				resp, err := client.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(payload))
				if err != nil {
					b.Fatal(err)
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("status = %d, err = %v", resp.StatusCode, err)
				}
				return n
			}
			// The first post runs the check, the second is its key's first
			// reuse; every timed post is a later hit.
			post()
			post()
			b.ReportAllocs()
			b.ResetTimer()
			var n int64
			for i := 0; i < b.N; i++ {
				n = post()
			}
			b.StopTimer()
			b.ReportMetric(float64(n), "body-B")
			if got := s.m.reused.Load(); got != uint64(b.N)+1 {
				b.Fatalf("reused %d times, want %d", got, b.N+1)
			}
		})
	}
}
