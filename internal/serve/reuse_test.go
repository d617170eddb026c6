package serve

// Report-reuse tests: a repeat of a clean check's request answers with
// that check's report under a new, pollable id, also after churn of other
// keys; the content key covers every request field but wait; failed,
// canceled, streaming and chaos-mode jobs never enter the index; and
// concurrent hits on one report encode identical bytes.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpufpx/pkg/gpufpx"
)

// splitID cuts the job id out of a job-view body, returning the id and the
// bytes after it.
func splitID(t testing.TB, body []byte) (string, []byte) {
	t.Helper()
	rest, ok := bytes.CutPrefix(body, []byte(idHead))
	end := bytes.IndexByte(rest, '"')
	if !ok || end < 0 {
		t.Fatalf("body does not start with a job id: %.200s", body)
	}
	return string(rest[:end]), rest[end:]
}

// reusedTotal scrapes gpufpx_serve_jobs_reused_total.
func reusedTotal(t *testing.T, url string) uint64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	const name = "\ngpufpx_serve_jobs_reused_total "
	i := bytes.Index(raw, []byte(name))
	if i < 0 {
		t.Fatalf("/metrics has no gpufpx_serve_jobs_reused_total:\n%s", raw)
	}
	line, _, _ := strings.Cut(string(raw[i+len(name):]), "\n")
	n, err := strconv.ParseUint(line, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// indexLen reads the reuse index's size.
func indexLen(s *Server) int {
	s.finishedMu.Lock()
	defer s.finishedMu.Unlock()
	return len(s.byKey)
}

// TestReuseRepeatRightAfterReply repeats a check the moment its reply
// arrives, while the worker that ran it has not yet retired it (held there
// by the beforeRetire hook). The repeat runs on the other worker and must
// still reuse the first job's report.
func TestReuseRepeatRightAfterReply(t *testing.T) {
	s := New(Config{Workers: 2})
	release := make(chan struct{})
	var held atomic.Bool
	s.beforeRetire = func(*job) {
		if held.CompareAndSwap(false, true) {
			<-release
		}
	}
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
	defer close(release)

	req := CheckRequest{Prog: "myocyte", Wait: true}
	before := reusedTotal(t, ts.URL)
	if code, raw, _ := postRaw(t, ts.URL, "/v1/check", req); code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, raw)
	}
	if code, raw, _ := postRaw(t, ts.URL, "/v1/check", req); code != http.StatusOK {
		t.Fatalf("repeat status = %d: %s", code, raw)
	}
	if got := reusedTotal(t, ts.URL); got != before+1 {
		t.Errorf("a repeat sent right after the reply moved the reuse counter %d → %d, want +1", before, got)
	}
}

func TestReuseRepeatIsByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, req := range []CheckRequest{
		{Prog: "myocyte", Wait: true},
		{Prog: "GRAMSCHM", Tool: "analyzer", Wait: true},
		{Prog: "quad-root", Tool: "shadow", Wait: true},
		{SASS: "FADD R2, RZ, -QNAN ;\nEXIT ;", Name: "nan.sass", Wait: true},
	} {
		before := reusedTotal(t, ts.URL)
		code, first, _ := postRaw(t, ts.URL, "/v1/check", req)
		if code != http.StatusOK {
			t.Fatalf("%+v: status = %d: %s", req, code, first)
		}
		if got := reusedTotal(t, ts.URL); got != before {
			t.Errorf("%+v: a first request moved the reuse counter %d → %d", req, before, got)
		}
		code, repeat, _ := postRaw(t, ts.URL, "/v1/check", req)
		if code != http.StatusOK {
			t.Fatalf("%+v: repeat status = %d: %s", req, code, repeat)
		}
		if got := reusedTotal(t, ts.URL); got != before+1 {
			t.Errorf("%+v: a repeat moved the reuse counter %d → %d, want +1", req, before, got)
		}
		id1, tail1 := splitID(t, first)
		id2, tail2 := splitID(t, repeat)
		if id1 == id2 {
			t.Errorf("%+v: the repeat reused the job id %s", req, id1)
		}
		if !bytes.Equal(tail1, tail2) {
			t.Errorf("%+v: repeat body differs apart from the id:\n%s\n%s", req, first, repeat)
		}
		// The reused job is a job of its own: pollable under its id, with
		// the same view.
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id2)
		if err != nil {
			t.Fatal(err)
		}
		polled, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: status = %d", id2, resp.StatusCode)
		}
		if id, tail := splitID(t, polled); id != id2 || !bytes.Equal(tail, tail2) {
			t.Errorf("polled view of %s differs from its response", id2)
		}
		// A request that differs in one field misses.
		miss := req
		miss.Freq = 3
		if code, raw, _ := postRaw(t, ts.URL, "/v1/check", miss); code != http.StatusOK {
			t.Fatalf("%+v: status = %d: %s", miss, code, raw)
		}
		if got := reusedTotal(t, ts.URL); got != before+1 {
			t.Errorf("%+v: a miss moved the reuse counter to %d, want %d", miss, got, before+1)
		}
	}
}

// flip changes v to a different value of its kind. A field of a kind it
// does not know fails the test, so a new CheckRequest field forces a look
// at both this table and CheckRequest.key.
func flip(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.String {
			t.Fatalf("field %s: no flip for %s", name, v.Type())
		}
		v.Set(reflect.Append(v, reflect.ValueOf("x")))
	default:
		t.Fatalf("field %s: no flip for %s", name, v.Type())
	}
}

// TestReuseKeyCoversEveryField flips each CheckRequest field, and each
// ToolConfig field, and expects a different content key: a field the key
// leaves out would let two different runs share one report. Wait is the
// one field that must not change the key.
func TestReuseKeyCoversEveryField(t *testing.T) {
	const budget = 1 << 20
	clone := func(r CheckRequest) CheckRequest {
		if r.ToolConfig != nil {
			tc := *r.ToolConfig
			r.ToolConfig = &tc
		}
		r.Kernels = append([]string(nil), r.Kernels...)
		return r
	}
	for _, base := range []CheckRequest{
		{ToolConfig: &ToolConfig{}},
		{Prog: "myocyte", Fixed: true, SASS: "EXIT ;", Name: "k", Grid: 2, Block: 64,
			Tool: "shadow", ToolConfig: &ToolConfig{Verbose: true, SigBits: 8, CancelBits: 4, MaxFindingsPerSite: 2},
			FastMath: true, DemoteF64: true, Arch: "turing", Kernels: []string{"a", "b"}, Freq: 2,
			CycleBudget: 7, Wait: true},
	} {
		want := base.key(budget)
		rt := reflect.TypeOf(base)
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			req := clone(base)
			fv := reflect.ValueOf(&req).Elem().Field(i)
			if f.Type == reflect.TypeOf(base.ToolConfig) {
				req.ToolConfig = nil
				if req.key(budget) == want {
					t.Errorf("dropping %s keeps the key", f.Name)
				}
				tt := f.Type.Elem()
				for j := 0; j < tt.NumField(); j++ {
					req := clone(base)
					flip(t, f.Name+"."+tt.Field(j).Name, reflect.ValueOf(req.ToolConfig).Elem().Field(j))
					if req.key(budget) == want {
						t.Errorf("flipping %s.%s keeps the key", f.Name, tt.Field(j).Name)
					}
				}
				continue
			}
			flip(t, f.Name, fv)
			same := req.key(budget) == want
			if f.Name == "Wait" {
				if !same {
					t.Error("flipping Wait changes the key")
				}
				continue
			}
			if same {
				t.Errorf("flipping %s keeps the key", f.Name)
			}
		}
	}

	// The budget enters as its effective value: an explicit copy of the
	// server default is the same run as no budget at all.
	if (CheckRequest{Prog: "myocyte"}).key(budget) != (CheckRequest{Prog: "myocyte", CycleBudget: budget}).key(budget) {
		t.Error("an explicit default budget changes the key")
	}
	// Length prefixes keep adjacent fields apart.
	for _, pair := range [][2]CheckRequest{
		{{Kernels: []string{"a", "b"}}, {Kernels: []string{"ab"}}},
		{{SASS: "x"}, {Name: "x"}},
		{{Prog: "ab"}, {Prog: "a", SASS: "b"}},
	} {
		if pair[0].key(budget) == pair[1].key(budget) {
			t.Errorf("%+v and %+v share a key", pair[0], pair[1])
		}
	}
}

func TestReuseExclusions(t *testing.T) {
	t.Run("budget-failed", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1})
		req := CheckRequest{Prog: "GRAMSCHM", CycleBudget: 1, Wait: true}
		for i := 0; i < 2; i++ {
			if code, _, e := post(t, ts.URL, req); code != http.StatusRequestTimeout {
				t.Fatalf("run %d: status = %d (%+v), want 408", i, code, e)
			}
		}
		if n := reusedTotal(t, ts.URL); n != 0 {
			t.Errorf("reused %d budget-failed jobs", n)
		}
		if n := indexLen(s); n != 0 {
			t.Errorf("index holds %d keys of failed jobs", n)
		}
	})
	t.Run("canceled", func(t *testing.T) {
		s := New(Config{Workers: 1})
		req := CheckRequest{SASS: "EXIT ;", Name: "exit.sass"}
		run := func(cancel bool) *job {
			session, source, err := req.build(0, gpufpx.FaultPlan{})
			if err != nil {
				t.Fatal(err)
			}
			j := newJob("j"+strconv.Itoa(int(s.nextID.Add(1))), req, session, source)
			j.key, j.keyed = req.key(0), true
			if cancel {
				j.cancel()
			}
			s.runJob(j)
			s.retire(j)
			return j
		}
		// A canceled job neither enters the index nor, once a clean holder
		// exists, reuses its report: it fails classified, as without reuse.
		if _, err := run(true).outcome(); gpufpx.Classify(err) != gpufpx.KindCanceled {
			t.Fatalf("canceled job: err = %v, want canceled", err)
		}
		if n := indexLen(s); n != 0 {
			t.Fatalf("index holds %d keys after a canceled job", n)
		}
		if _, err := run(false).outcome(); err != nil {
			t.Fatal(err)
		}
		if _, err := run(true).outcome(); gpufpx.Classify(err) != gpufpx.KindCanceled {
			t.Fatalf("canceled job after a clean one: err = %v, want canceled", err)
		}
		if n := s.m.reused.Load(); n != 0 {
			t.Errorf("reused %d times, want 0", n)
		}
	})
	t.Run("stream", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1})
		req := CheckRequest{Prog: "myocyte"}
		want := syncToolBody(t, req)
		for i := 0; i < 2; i++ {
			bodies, _, last := readStream(t, ts.URL, "/v1/check", req)
			if last.Trailer == nil || last.Trailer.Status != StatusDone {
				t.Fatalf("run %d: final trailer = %+v", i, last.Trailer)
			}
			if got := bodies[0]; got == nil || !bytes.Equal(got.Bytes(), want) {
				t.Errorf("run %d: streamed bytes differ from the sync body", i)
			}
		}
		if n := reusedTotal(t, ts.URL); n != 0 {
			t.Errorf("reused %d streaming jobs", n)
		}
		if n := indexLen(s); n != 0 {
			t.Errorf("index holds %d keys of streaming jobs", n)
		}
	})
	t.Run("fault-plan", func(t *testing.T) {
		s, ts := newTestServer(t, Config{
			Workers: 1,
			Faults:  gpufpx.FaultPlan{Seed: 1, Rate: 1e-12, Planes: gpufpx.FaultPlaneDevice},
		})
		req := CheckRequest{SASS: "EXIT ;", Name: "exit.sass", Wait: true}
		for i := 0; i < 2; i++ {
			if code, _, e := post(t, ts.URL, req); code != http.StatusOK {
				t.Fatalf("run %d: status = %d (%+v)", i, code, e)
			}
		}
		if n := reusedTotal(t, ts.URL); n != 0 {
			t.Errorf("reused %d chaos-mode jobs", n)
		}
		if n := indexLen(s); n != 0 {
			t.Errorf("index holds %d keys on a chaos-mode server", n)
		}
	})
}

// TestReuseConcurrentHits encodes one shared report from 8 requests at
// once; under -race this is the proof that reused reports are read-only.
func TestReuseConcurrentHits(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	req := CheckRequest{Prog: "GRAMSCHM", Wait: true}
	code, first, _ := postRaw(t, ts.URL, "/v1/check", req)
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, first)
	}
	_, want := splitID(t, first)

	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i], err = io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("hit %d: status = %d, err = %v", i, resp.StatusCode, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	ids := map[string]bool{}
	for i, b := range bodies {
		id, tail := splitID(t, b)
		ids[id] = true
		if !bytes.Equal(tail, want) {
			t.Errorf("hit %d: body differs from the first response apart from the id", i)
		}
	}
	if len(ids) != n {
		t.Errorf("%d concurrent hits got %d distinct ids", n, len(ids))
	}
	if got := reusedTotal(t, ts.URL); got != n {
		t.Errorf("reuse counter = %d, want %d", got, n)
	}
}

// TestReuseSurvivesChurn repeats key A after more than maxFinishedJobs
// repeats of key B. The index is bounded by keys, not by finished jobs, so
// A's report is still held and the repeat must reuse it.
func TestReuseSurvivesChurn(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	a := CheckRequest{SASS: "EXIT ;", Name: "a.sass", Tool: "plain", Wait: true}
	b := CheckRequest{SASS: "EXIT ;", Name: "b.sass", Tool: "plain", Wait: true}
	if code, _, e := post(t, ts.URL, a); code != http.StatusOK {
		t.Fatalf("key A: status = %d (%+v)", code, e)
	}
	for i := 0; i <= maxFinishedJobs; i++ {
		if code, _, e := post(t, ts.URL, b); code != http.StatusOK {
			t.Fatalf("key B #%d: status = %d (%+v)", i, code, e)
		}
	}
	before := reusedTotal(t, ts.URL)
	if code, _, e := post(t, ts.URL, a); code != http.StatusOK {
		t.Fatalf("key A repeat: status = %d (%+v)", code, e)
	}
	if got := reusedTotal(t, ts.URL); got != before+1 {
		t.Errorf("key A after %d checks of key B moved the reuse counter %d → %d, want +1", maxFinishedJobs+1, before, got)
	}
}

// referenceTail runs source through its own Session, apart from the
// service, and renders the done job view of its report the way the wire
// has always encoded it: an indented JobView. It returns the bytes after
// the job id's value, where every reply for the report must agree.
func referenceTail(t *testing.T, tool string, source gpufpx.Source) []byte {
	t.Helper()
	tl, err := gpufpx.ParseTool(tool)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := gpufpx.New(gpufpx.WithTool(tl),
		gpufpx.WithCompile(gpufpx.CompileOptions{Arch: gpufpx.ArchAmpere})).
		Run(context.Background(), source)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(JobView{
		Status:   StatusDone,
		Tool:     rep.Tool,
		Cycles:   rep.Cycles,
		Launches: rep.Launches,
		Detector: rep.Detector,
		Analyzer: rep.Analyzer,
		Shadow:   rep.Shadow,
	}); err != nil {
		t.Fatal(err)
	}
	_, tail := splitID(t, buf.Bytes())
	return tail
}

// getJob polls /v1/jobs/{id} and returns the status and body.
func getJob(t *testing.T, url, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestReuseBodiesMatchSessionRun pins the wire bytes of a held check for
// every tool and a posted listing: the first reply, two repeats, an async
// repeat and a poll of every one of those jobs, the first job's polled
// after the repeats, must each equal the reference view of Session.Run's
// report apart from the job id.
func TestReuseBodiesMatchSessionRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	const listing = "FADD R2, RZ, -QNAN ;\nFMUL R3, R2, 2.0 ;\nEXIT ;"
	for _, tc := range []struct {
		req    CheckRequest
		source gpufpx.Source
	}{
		{CheckRequest{Prog: "myocyte", Tool: "detector"}, gpufpx.Program("myocyte")},
		{CheckRequest{Prog: "GRAMSCHM", Tool: "analyzer"}, gpufpx.Program("GRAMSCHM")},
		{CheckRequest{Prog: "quad-root", Tool: "shadow"}, gpufpx.Program("quad-root")},
		{CheckRequest{Prog: "ill-sum", Tool: "plain"}, gpufpx.Program("ill-sum")},
		{CheckRequest{Prog: "libor", Tool: "binfpe"}, gpufpx.Program("libor")},
		{CheckRequest{Prog: "hotspot", Tool: "memcheck"}, gpufpx.Program("hotspot")},
		{CheckRequest{SASS: listing, Name: "nan.sass", Tool: "detector"}, gpufpx.SASSText("nan.sass", listing, 1, 32)},
	} {
		want := referenceTail(t, tc.req.Tool, tc.source)
		name := tc.req.Tool + " " + tc.req.Prog + tc.req.Name
		check := func(what string, body []byte) string {
			t.Helper()
			id, tail := splitID(t, body)
			if !bytes.Equal(tail, want) {
				t.Errorf("%s: %s differs from the Session.Run view apart from the id:\n%s\nwant tail:\n%s", name, what, body, want)
			}
			return id
		}
		before := reusedTotal(t, ts.URL)
		var ids []string
		req := tc.req
		req.Wait = true
		for i := 0; i < 3; i++ {
			code, body, _ := postRaw(t, ts.URL, "/v1/check", req)
			if code != http.StatusOK {
				t.Fatalf("%s: reply %d: status = %d: %s", name, i, code, body)
			}
			ids = append(ids, check("reply "+strconv.Itoa(i), body))
		}
		// An async repeat answers 202 at once and is polled until done.
		req.Wait = false
		code, body, _ := postRaw(t, ts.URL, "/v1/check", req)
		if code != http.StatusAccepted {
			t.Fatalf("%s: async repeat: status = %d: %s", name, code, body)
		}
		id, _ := splitID(t, body)
		for deadline := time.Now().Add(30 * time.Second); ; {
			var v JobView
			if code, body = getJob(t, ts.URL, id); code != http.StatusOK || json.Unmarshal(body, &v) != nil {
				t.Fatalf("%s: GET /v1/jobs/%s: status = %d: %s", name, id, code, body)
			}
			if v.Status == StatusDone {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: async repeat %s still %q", name, id, v.Status)
			}
			time.Sleep(time.Millisecond)
		}
		ids = append(ids, id)
		// The first job ran and holds its own report; the rest reused it.
		for _, id := range ids {
			code, body := getJob(t, ts.URL, id)
			if code != http.StatusOK {
				t.Fatalf("%s: GET /v1/jobs/%s: status = %d: %s", name, id, code, body)
			}
			if got := check("poll of "+id, body); got != id {
				t.Errorf("%s: poll of %s answered for job %s", name, id, got)
			}
		}
		if got := reusedTotal(t, ts.URL); got != before+uint64(len(ids)-1) {
			t.Errorf("%s: reuse counter moved %d → %d, want +%d", name, before, got, len(ids)-1)
		}
	}
}
