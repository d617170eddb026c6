package gateway

// Fleet tests: rendezvous distribution and stability, shard affinity,
// byte-identical reports regardless of fleet size, rerouting past a
// killed node under live load, admission control, and streaming through
// the proxy.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gpufpx/internal/serve"
	"gpufpx/pkg/gpufpx"
)

// fleet boots n serve nodes on httptest listeners and a gateway over
// them, with fast health probes.
func fleet(t *testing.T, n int, gwCfg Config) (*Gateway, *httptest.Server, []*httptest.Server) {
	t.Helper()
	var nodes []*httptest.Server
	var urls []string
	for i := 0; i < n; i++ {
		s := serve.New(serve.Config{Workers: 2, QueueDepth: 64})
		s.Start()
		ts := httptest.NewServer(s.Handler())
		nodes = append(nodes, ts)
		urls = append(urls, ts.URL)
		t.Cleanup(ts.Close)
	}
	gwCfg.Nodes = urls
	if gwCfg.HealthInterval == 0 {
		gwCfg.HealthInterval = 50 * time.Millisecond
	}
	g, err := New(gwCfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Stop)
	gw := httptest.NewServer(g.Handler())
	t.Cleanup(gw.Close)
	return g, gw, nodes
}

func TestRendezvousDistributionAndStability(t *testing.T) {
	nodes := []string{"http://n1", "http://n2", "http://n3"}
	g := &Gateway{}
	for _, u := range nodes {
		nd := &node{url: u}
		nd.healthy.Store(true)
		g.nodes = append(g.nodes, nd)
	}

	const keys = 3000
	placed := map[string]string{}
	count := map[string]int{}
	for i := 0; i < keys; i++ {
		k := ShardKey(serve.CheckRequest{Prog: fmt.Sprintf("prog-%d", i)})
		n := g.Shard(k)
		placed[k] = n
		count[n]++
	}
	for _, u := range nodes {
		share := float64(count[u]) / keys
		if share < 0.20 || share > 0.47 {
			t.Errorf("node %s holds %.1f%% of keys; want a roughly even split", u, share*100)
		}
	}

	// Remove n3: only its keys may move, and they must spread over the
	// survivors — the rendezvous stability property that keeps the other
	// shards' caches warm.
	g2 := &Gateway{}
	for _, u := range nodes[:2] {
		nd := &node{url: u}
		nd.healthy.Store(true)
		g2.nodes = append(g2.nodes, nd)
	}
	moved := 0
	for k, was := range placed {
		now := g2.Shard(k)
		if was != nodes[2] && now != was {
			t.Fatalf("key %s moved from surviving node %s to %s", k, was, now)
		}
		if was == nodes[2] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no keys were on the removed node; distribution test is vacuous")
	}
}

func TestShardKeyContentDerived(t *testing.T) {
	a := ShardKey(serve.CheckRequest{Prog: "myocyte"})
	if b := ShardKey(serve.CheckRequest{Prog: "myocyte", Tool: "analyzer", Wait: true}); a != b {
		t.Error("tool/wait must not change the shard key (shared compiled artifacts)")
	}
	if b := ShardKey(serve.CheckRequest{Prog: "myocyte", FastMath: true}); a == b {
		t.Error("fastmath compiles a different kernel; key must differ")
	}
	if b := ShardKey(serve.CheckRequest{Prog: "GRAMSCHM"}); a == b {
		t.Error("different programs must key differently")
	}
	// Batch keys are order-independent.
	items := []serve.CheckRequest{{Prog: "myocyte"}, {Prog: "GRAMSCHM"}}
	rev := []serve.CheckRequest{{Prog: "GRAMSCHM"}, {Prog: "myocyte"}}
	if BatchShardKey(items) != BatchShardKey(rev) {
		t.Error("batch key must be order-independent")
	}
}

// checkVia posts one synchronous check through url and returns the raw
// response body.
func checkVia(t *testing.T, url string, req serve.CheckRequest) (int, []byte, http.Header) {
	t.Helper()
	req.Wait = true
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/check", "application/json", bytes.NewReader(body))
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

// TestFleetSizeInvariantReports is the acceptance-criterion pin: the same
// source checked via a 1-node and a 3-node fleet yields byte-identical
// response bodies, whichever shard served it.
func TestFleetSizeInvariantReports(t *testing.T) {
	_, gw1, _ := fleet(t, 1, Config{})
	_, gw3, _ := fleet(t, 3, Config{})
	reqs := []serve.CheckRequest{
		{Prog: "myocyte"},
		{Prog: "GRAMSCHM", Tool: "analyzer"},
		{Prog: "HPCG"},
		{Prog: "libor", FastMath: true},
		{SASS: "FADD R2, RZ, -QNAN ;\nEXIT ;", Name: "nan.sass"},
	}
	// Job IDs are per-node counters, so they (and only they) may differ
	// between fleets; everything else — status, tool, cycles, the full
	// detector/analyzer reports — must be byte-identical after blanking
	// the ID.
	normalize := func(raw []byte) []byte {
		var v serve.JobView
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("unmarshal body: %v", err)
		}
		v.ID = ""
		out, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, req := range reqs {
		c1, b1, _ := checkVia(t, gw1.URL, req)
		c3, b3, h3 := checkVia(t, gw3.URL, req)
		if c1 != http.StatusOK || c3 != http.StatusOK {
			t.Fatalf("%+v: statuses %d/%d, bodies %s / %s", req, c1, c3, b1, b3)
		}
		if !bytes.Equal(normalize(b1), normalize(b3)) {
			t.Errorf("%s%s: 1-node and 3-node fleets returned different reports", req.Prog, req.Name)
		}
		if h3.Get(HeaderShardKey) == "" {
			t.Error("response should echo the shard key")
		}
	}
}

// TestGatewayAffinity: repeated checks of one key all land on the same
// node; a different key can land elsewhere (statistically, over several
// keys at 3 nodes at least two nodes serve traffic).
func TestGatewayAffinity(t *testing.T) {
	g, gw, _ := fleet(t, 3, Config{})
	for i := 0; i < 4; i++ {
		checkVia(t, gw.URL, serve.CheckRequest{Prog: "myocyte"})
	}
	served := 0
	for _, n := range g.nodes {
		if r := n.routed.Load(); r > 0 {
			served++
			if r != 4 {
				t.Errorf("affinity broken: node %s served %d of 4 identical checks", n.url, r)
			}
		}
	}
	if served != 1 {
		t.Errorf("identical checks spread over %d nodes, want 1", served)
	}
}

// TestGatewayReroutesPastDeadNode kills a node mid-load and requires every
// request to keep succeeding, with the failover observable in headers and
// metrics.
func TestGatewayReroutesPastDeadNode(t *testing.T) {
	g, gw, nodes := fleet(t, 2, Config{HealthInterval: time.Hour}) // probes off: exercise live-traffic demotion
	// Find a program served by node 0 so killing it forces a reroute. Node
	// URLs carry random ports, so each program lands on node 0 about half
	// the time: the whole corpus backs up the four preferred probes.
	probes := []string{"myocyte", "GRAMSCHM", "HPCG", "libor"}
	for _, p := range gpufpx.Programs() {
		probes = append(probes, p.Name)
	}
	var victimReq serve.CheckRequest
	found := false
	for _, prog := range probes {
		req := serve.CheckRequest{Prog: prog}
		if g.Shard(ShardKey(req)) == nodes[0].URL {
			victimReq, found = req, true
			break
		}
	}
	if !found {
		t.Skip("no probe program shards to node 0")
	}
	if code, _, _ := checkVia(t, gw.URL, victimReq); code != http.StatusOK {
		t.Fatalf("pre-kill check failed: %d", code)
	}
	nodes[0].Close()
	code, body, hdr := checkVia(t, gw.URL, victimReq)
	if code != http.StatusOK {
		t.Fatalf("post-kill check = %d, body %s", code, body)
	}
	if got := hdr.Get(HeaderRerouted); !strings.Contains(got, nodes[0].URL) {
		t.Errorf("X-FPX-Rerouted = %q, want it to name the dead node", got)
	}
	if g.m.reroutes.Load() == 0 {
		t.Error("reroute counter did not move")
	}
	// Subsequent checks go straight to the survivor, no more reroutes.
	before := g.m.reroutes.Load()
	if code, _, _ := checkVia(t, gw.URL, victimReq); code != http.StatusOK {
		t.Fatal("survivor stopped serving")
	}
	if g.m.reroutes.Load() != before {
		t.Error("healthy-set routing still retried the dead node")
	}
}

func TestAdmissionControl(t *testing.T) {
	_, gw, _ := fleet(t, 1, Config{
		TenantRates:       map[string]float64{"starved": 1},
		BurstSeconds:      1,
		DefaultCostCycles: 1_000_000,
	})
	post := func(tenant string) (int, http.Header) {
		body, _ := json.Marshal(serve.CheckRequest{Prog: "myocyte", Wait: true})
		req, _ := http.NewRequest("POST", gw.URL+"/v1/check", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set(HeaderTenant, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header
	}
	// Unmetered default tenant sails through.
	if code, _ := post(""); code != http.StatusOK {
		t.Fatalf("unmetered tenant got %d", code)
	}
	// The starved tenant's bucket (1 cycle/s × 1s burst) cannot cover a
	// 1M-cycle request: immediate 429 with Retry-After.
	code, hdr := post("starved")
	if code != http.StatusTooManyRequests {
		t.Fatalf("starved tenant got %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestGatewayStreamPassthrough: ?stream=1 flows through the proxy and the
// demuxed fragments still byte-equal the synchronous body.
func TestGatewayStreamPassthrough(t *testing.T) {
	_, gw, _ := fleet(t, 3, Config{})
	req := serve.CheckRequest{Prog: "myocyte"}
	_, syncBody, _ := checkVia(t, gw.URL, req)
	var syncView serve.JobView
	if err := json.Unmarshal(syncBody, &syncView); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	enc.Encode(syncView.Detector)

	body, _ := json.Marshal(req)
	resp, err := http.Post(gw.URL+"/v1/check?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	var got bytes.Buffer
	var last serve.StreamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var line serve.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		got.WriteString(line.Frag)
		if line.Done {
			last = line
		}
	}
	if !last.Done || last.Trailer == nil {
		t.Fatal("stream ended without done trailer")
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("streamed fragments through gateway differ from sync detector body")
	}
}

// TestGatewayConcurrentLoad hammers a 3-node fleet from many goroutines —
// meaningful under -race — and requires every request classified.
func TestGatewayConcurrentLoad(t *testing.T) {
	_, gw, _ := fleet(t, 3, Config{})
	progs := []string{"myocyte", "GRAMSCHM", "HPCG", "libor"}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for c := 0; c < 8; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				req := serve.CheckRequest{Prog: progs[(c+i)%len(progs)]}
				code, body, _ := checkVia(t, gw.URL, req)
				if code != http.StatusOK {
					errs <- fmt.Errorf("%s: %d %s", req.Prog, code, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
