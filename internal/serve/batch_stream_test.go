package serve

// Batch and streaming API tests: /v1/batch fan-out matches serial checks,
// admission validates items before costing a queue slot, and the ndjson
// streaming contract — concatenated frag strings byte-equal the
// synchronous report body — holds for check and batch, including under a
// mid-stream client disconnect.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"gpufpx/pkg/gpufpx"
)

// postRaw posts a JSON body to path and returns status + raw body.
func postRaw(t *testing.T, url, path string, v any) (int, []byte, http.Header) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

// syncToolBody runs one check synchronously through the facade and
// returns the canonical report body the service must reproduce.
func syncToolBody(t *testing.T, req CheckRequest) []byte {
	t.Helper()
	session, source, err := req.build(0, gpufpx.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := session.Run(context.Background(), source)
	if err != nil {
		t.Fatal(err)
	}
	return rep.ToolBody()
}

func TestBatchSyncMatchesSerialChecks(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	items := []CheckRequest{
		{Prog: "myocyte"},
		{Prog: "GRAMSCHM", Tool: "analyzer"},
		{Prog: "libor", FastMath: true},
	}
	code, raw, _ := postRaw(t, ts.URL, "/v1/batch", BatchRequest{Items: items, Wait: true})
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, raw)
	}
	var v JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone || len(v.Items) != len(items) {
		t.Fatalf("batch view = %+v, want done with %d items", v, len(items))
	}
	for i, item := range v.Items {
		if item.Status != StatusDone {
			t.Fatalf("item %d: %+v", i, item)
		}
		var got bytes.Buffer
		var err error
		switch {
		case item.Detector != nil:
			err = (&gpufpx.Report{Tool: item.Tool, Detector: item.Detector}).WriteJSON(&got)
		case item.Analyzer != nil:
			err = (&gpufpx.Report{Tool: item.Tool, Analyzer: item.Analyzer}).WriteJSON(&got)
		default:
			t.Fatalf("item %d carries no report", i)
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := syncToolBody(t, items[i]); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("item %d report differs from a serial check", i)
		}
	}
}

func TestBatchAdmissionValidatesItems(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, raw, _ := postRaw(t, ts.URL, "/v1/batch", BatchRequest{
		Items: []CheckRequest{{Prog: "myocyte"}, {Prog: "x", Tool: "nope"}},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", code, raw)
	}
	if !strings.Contains(string(raw), "item 1") {
		t.Fatalf("error should name the offending item: %s", raw)
	}
	code, raw, _ = postRaw(t, ts.URL, "/v1/batch", BatchRequest{})
	if code != http.StatusBadRequest {
		t.Fatalf("empty batch: status = %d, body %s", code, raw)
	}
}

func TestBatchAsyncPollable(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, raw, hdr := postRaw(t, ts.URL, "/v1/batch", BatchRequest{
		Items: []CheckRequest{{Prog: "myocyte"}, {Prog: "GRAMSCHM"}},
	})
	if code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", code, raw)
	}
	var v JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	loc := hdr.Get("Location")
	if loc == "" {
		t.Fatal("202 without Location")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + loc)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch stuck: %+v", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(v.Items) != 2 || v.Items[0].Detector == nil {
		t.Fatalf("polled batch view = %+v", v)
	}
}

// readStream posts with ?stream=1 and parses the ndjson response into
// per-item concatenated bodies, per-item trailers, and the final line.
func readStream(t *testing.T, url, path string, v any) (map[int]*bytes.Buffer, map[int]JobView, StreamLine) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path+"?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type = %q", ct)
	}
	bodies := map[int]*bytes.Buffer{}
	trailers := map[int]JobView{}
	var last StreamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad ndjson line %q: %v", sc.Text(), err)
		}
		if line.Frag != "" {
			if bodies[line.Item] == nil {
				bodies[line.Item] = &bytes.Buffer{}
			}
			bodies[line.Item].WriteString(line.Frag)
		}
		if line.Trailer != nil && !line.Done {
			trailers[line.Item] = *line.Trailer
		}
		if line.Done {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !last.Done {
		t.Fatal("stream ended without a done line")
	}
	return bodies, trailers, last
}

func TestCheckStreamMatchesSyncBody(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, req := range []CheckRequest{
		{Prog: "myocyte"},
		{Prog: "GRAMSCHM", Tool: "analyzer"},
	} {
		bodies, _, last := readStream(t, ts.URL, "/v1/check", req)
		if last.Trailer == nil || last.Trailer.Status != StatusDone {
			t.Fatalf("final trailer = %+v", last.Trailer)
		}
		want := syncToolBody(t, req)
		if got := bodies[0]; got == nil || !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s/%s: streamed bytes differ from sync body", req.Prog, req.Tool)
		}
	}
}

func TestBatchStreamPerItemBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	items := []CheckRequest{
		{Prog: "myocyte"},
		{Prog: "GRAMSCHM", Tool: "analyzer"},
		{Prog: "libor"},
	}
	bodies, trailers, last := readStream(t, ts.URL, "/v1/batch", BatchRequest{Items: items})
	if last.Trailer == nil || len(last.Trailer.Items) != len(items) {
		t.Fatalf("final batch trailer = %+v", last.Trailer)
	}
	for i, req := range items {
		want := syncToolBody(t, req)
		if got := bodies[i]; got == nil || !bytes.Equal(got.Bytes(), want) {
			t.Errorf("item %d: streamed bytes differ from sync body", i)
		}
		tr, ok := trailers[i]
		if !ok || tr.Status != StatusDone {
			t.Errorf("item %d trailer = %+v", i, tr)
		}
	}
}

// TestStreamClientDisconnect: a client that walks away mid-stream must
// not wedge the worker; the job cancels and the server drains cleanly
// (the cleanup Drain in newTestServer enforces the latter).
func TestStreamClientDisconnect(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body, _ := json.Marshal(CheckRequest{Prog: "myocyte"})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/check?stream=1", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	resp.Body.Read(buf) // first byte arrived: the stream is live
	cancel()
	resp.Body.Close()
	// Drain (via cleanup) must complete; give the cancel a moment to land.
	time.Sleep(50 * time.Millisecond)
}
