// Package gateway is the fleet front door of the checking service: it
// shards check and batch requests across a set of fpx-serve nodes by
// compile-cache content key, so each node's process-wide compile, lowering
// and fusion caches stay hot for "its" kernels — the cache affinity that
// makes horizontal scaling multiplicative instead of merely additive.
//
// Routing is rendezvous (highest-random-weight) hashing: every (key,
// node) pair gets a deterministic score and the healthiest-highest wins.
// Adding or removing a node only remaps the keys that scored it highest;
// every other key keeps its shard and its warm caches. Node health is
// probed periodically and demoted on live traffic failures; requests
// reroute to the next-best node, and the response carries an
// X-FPX-Rerouted header so clients and tests can observe the failover.
//
// Admission control is budgeted in simulated cycles, per tenant: each
// tenant holds a token bucket refilled at a configured cycles/second, and
// a request is charged its declared cycle_budget (or a default estimate)
// before being forwarded. Rejections are 429 with Retry-After, the same
// backpressure contract fpx-serve's queue uses, so gpufpx/client handles
// both transparently.
package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpufpx/internal/serve"
)

// Header names of the fleet protocol.
const (
	// HeaderTenant names the tenant whose admission budget a request
	// draws from; absent means the shared "anonymous" budget.
	HeaderTenant = "X-FPX-Tenant"
	// HeaderRerouted lists nodes that were skipped as unhealthy while
	// serving this request.
	HeaderRerouted = "X-FPX-Rerouted"
	// HeaderNodeUnhealthy marks a 503 as a transient fleet condition —
	// no healthy node was available — rather than a server fault; clients
	// retry these without charging their circuit breaker.
	HeaderNodeUnhealthy = "X-FPX-Node-Unhealthy"
	// HeaderShardKey echoes the content key a request was routed by
	// (diagnostics and affinity tests).
	HeaderShardKey = "X-FPX-Shard-Key"
)

// Config sizes the gateway.
type Config struct {
	// Nodes are the serve nodes' base URLs (e.g. http://127.0.0.1:8401).
	Nodes []string
	// HealthInterval is the health-probe period. Zero means 500ms.
	HealthInterval time.Duration
	// ProbeTimeout bounds one health probe. Zero means 2s.
	ProbeTimeout time.Duration
	// MaxBodyBytes bounds a request body. Zero means 8 MiB.
	MaxBodyBytes int64

	// TenantRates maps tenant → admission refill rate in simulated cycles
	// per second. Tenants not listed use DefaultTenantRate.
	TenantRates map[string]float64
	// DefaultTenantRate is the refill rate for unlisted tenants; zero
	// disables admission control for them.
	DefaultTenantRate float64
	// BurstSeconds sizes each bucket's capacity as rate×BurstSeconds.
	// Zero means 10.
	BurstSeconds float64
	// DefaultCostCycles is charged for requests that do not declare a
	// cycle_budget. Zero means 2,000,000.
	DefaultCostCycles uint64

	// Client is the HTTP client used for proxying and probes; nil means
	// a dedicated client with no global timeout (streams run long).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.BurstSeconds <= 0 {
		c.BurstSeconds = 10
	}
	if c.DefaultCostCycles == 0 {
		c.DefaultCostCycles = 2_000_000
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// node is one serve node and its live counters.
type node struct {
	url     string
	healthy atomic.Bool

	routed   atomic.Uint64 // requests this node served
	rerouted atomic.Uint64 // times this node was skipped as unhealthy
}

// Gateway shards requests across serve nodes. Build with New, Start the
// health loop, mount Handler, Stop on shutdown.
type Gateway struct {
	cfg   Config
	nodes []*node

	admission *admission

	// jobOwner remembers which node issued which async job id, so
	// /v1/jobs polling follows the job to its shard.
	jobOwner sync.Map // id → node base URL

	stop chan struct{}
	wg   sync.WaitGroup

	m gwMetrics
}

// New builds a gateway over the given nodes; all start healthy (the
// first probe round corrects that within HealthInterval).
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("gateway: no nodes configured")
	}
	g := &Gateway{cfg: cfg, stop: make(chan struct{}), admission: newAdmission(cfg)}
	for _, u := range cfg.Nodes {
		n := &node{url: strings.TrimRight(u, "/")}
		n.healthy.Store(true)
		g.nodes = append(g.nodes, n)
	}
	return g, nil
}

// Start spawns the health-probe loop.
func (g *Gateway) Start() {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(g.cfg.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				g.probeAll()
			}
		}
	}()
}

// Stop ends the health loop.
func (g *Gateway) Stop() {
	close(g.stop)
	g.wg.Wait()
}

// probeAll refreshes every node's health bit from its /healthz.
func (g *Gateway) probeAll() {
	var wg sync.WaitGroup
	for _, n := range g.nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.probe(n)
		}()
	}
	wg.Wait()
}

// probe marks a node healthy iff its /healthz answers 200 in time.
func (g *Gateway) probe(n *node) {
	client := &http.Client{Timeout: g.cfg.ProbeTimeout}
	resp, err := client.Get(n.url + "/healthz")
	if err != nil {
		n.healthy.Store(false)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	n.healthy.Store(resp.StatusCode == http.StatusOK)
}

// score is the rendezvous weight of (key, node): a deterministic 64-bit
// hash, so every gateway instance routes a key the same way.
func score(key, nodeURL string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write([]byte(nodeURL))
	return mix64(h.Sum64())
}

// mix64 is a full-avalanche finalizer (the murmur3 fmix64 constants).
// Node URLs often differ only in their last byte, and raw FNV-1a of such
// near-identical inputs yields scores whose ordering is correlated —
// measurably skewing the rendezvous split. The finalizer decorrelates
// them.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// pick returns the highest-scoring healthy node for key, excluding
// already-tried ones; nil when none remain.
func (g *Gateway) pick(key string, tried map[*node]bool) *node {
	var best *node
	var bestScore uint64
	for _, n := range g.nodes {
		if tried[n] || !n.healthy.Load() {
			continue
		}
		if s := score(key, n.url); best == nil || s > bestScore {
			best, bestScore = n, s
		}
	}
	return best
}

// NodeStat is one node's live routing view, for load harnesses and
// operator tooling.
type NodeStat struct {
	URL              string
	Healthy          bool
	Routed, Rerouted uint64
}

// NodeStats snapshots every node's counters.
func (g *Gateway) NodeStats() []NodeStat {
	out := make([]NodeStat, len(g.nodes))
	for i, n := range g.nodes {
		out[i] = NodeStat{
			URL:      n.url,
			Healthy:  n.healthy.Load(),
			Routed:   n.routed.Load(),
			Rerouted: n.rerouted.Load(),
		}
	}
	return out
}

// Shard returns the node URL a key routes to with every node healthy —
// the pure rendezvous placement, exported for distribution tests and
// operator tooling.
func (g *Gateway) Shard(key string) string {
	var best string
	var bestScore uint64
	for _, n := range g.nodes {
		if s := score(key, n.url); best == "" || s > bestScore {
			best, bestScore = n.url, s
		}
	}
	return best
}

// ShardKey derives the content key a check request is routed by: the
// source identity plus the compile-relevant knobs — the same ingredients
// as the compile cache's content key. The tool is deliberately excluded:
// a detector and an analyzer check of the same kernel share compiled and
// lowered artifacts, so they belong on the same shard.
func ShardKey(req serve.CheckRequest) string {
	h := fnv.New64a()
	for _, part := range []string{
		req.Prog, fmt.Sprint(req.Fixed), req.SASS, req.Name,
		fmt.Sprint(req.FastMath), fmt.Sprint(req.DemoteF64),
		strings.ToLower(req.Arch),
	} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("k%016x", h.Sum64())
}

// BatchShardKey combines the item keys order-independently, so a batch
// routes by its content set and identical batches share a shard.
func BatchShardKey(items []serve.CheckRequest) string {
	var acc uint64
	for _, it := range items {
		h := fnv.New64a()
		h.Write([]byte(ShardKey(it)))
		acc ^= h.Sum64()
	}
	return fmt.Sprintf("b%016x", acc)
}

// Handler returns the gateway's route table.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/check", g.handleCheck)
	mux.HandleFunc("POST /v1/batch", g.handleBatch)
	mux.HandleFunc("POST /v1/profile", g.handleProfile)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJob)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return mux
}

// errorBody mirrors the serve wire shape.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleCheck routes one check by its content key.
func (g *Gateway) handleCheck(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var req serve.CheckRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	cost := req.CycleBudget
	if cost == 0 {
		cost = g.cfg.DefaultCostCycles
	}
	if !g.admit(w, r, cost) {
		return
	}
	g.proxy(w, r, ShardKey(req), body)
}

// handleBatch routes a batch by its combined content key, charging the
// summed item cost.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var req serve.BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	if len(req.Items) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: `"items" must not be empty`})
		return
	}
	var cost uint64
	for _, it := range req.Items {
		c := it.CycleBudget
		if c == 0 {
			c = g.cfg.DefaultCostCycles
		}
		cost += c
	}
	if !g.admit(w, r, cost) {
		return
	}
	g.proxy(w, r, BatchShardKey(req.Items), body)
}

// handleProfile routes a vulnerability-profiling campaign by the same
// content key as a check of its source. That buys two affinities at once:
// the campaign's thousands of trial runs hit the shard whose compile cache
// already holds the kernel and its built program, and a re-POSTed
// campaign lands on the node that holds its checkpoint, so resume-after-
// drain works through the gateway. Admission charges the whole sweep —
// per-run cost × planned trials — because a campaign really is that many
// runs.
func (g *Gateway) handleProfile(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var req serve.ProfileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	perRun := req.CycleBudget
	if perRun == 0 {
		perRun = g.cfg.DefaultCostCycles
	}
	trials := uint64(req.TrialsPerSite)
	if trials == 0 {
		trials = serve.DefaultTrialsPerSite
	}
	sites := uint64(req.MaxSites)
	if sites == 0 {
		sites = serve.DefaultMaxSites
	}
	if !g.admit(w, r, perRun*trials*sites) {
		return
	}
	g.proxy(w, r, ShardKey(req.CheckRequest), body)
}

// readBody slurps a bounded request body.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "reading body: " + err.Error()})
		return nil, false
	}
	return body, true
}

// admit charges the request's tenant bucket; a depleted budget is a 429
// with Retry-After, the same backpressure shape as a full node queue.
func (g *Gateway) admit(w http.ResponseWriter, r *http.Request, cost uint64) bool {
	tenant := r.Header.Get(HeaderTenant)
	if tenant == "" {
		tenant = "anonymous"
	}
	ok, retryAfter := g.admission.take(tenant, float64(cost))
	if ok {
		return true
	}
	g.m.admissionRejected(tenant)
	w.Header().Set("Retry-After", fmt.Sprintf("%d", ceilSeconds(retryAfter)))
	writeJSON(w, http.StatusTooManyRequests, errorBody{
		Error: fmt.Sprintf("tenant %q over admission budget (%d cycles requested)", tenant, cost),
	})
	return false
}

// ceilSeconds rounds a duration up to whole seconds, minimum 1.
func ceilSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// proxy forwards the request to the key's node, rerouting past unhealthy
// nodes. The original body bytes are forwarded unchanged — the gateway
// parses only for keying and admission — so reports stay byte-identical
// to hitting the node directly, whichever shard serves them.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	var skipped []string
	tried := map[*node]bool{}
	for {
		n := g.pick(key, tried)
		if n == nil {
			g.m.noNode.Add(1)
			w.Header().Set(HeaderNodeUnhealthy, "no-healthy-node")
			if len(skipped) > 0 {
				w.Header().Set(HeaderRerouted, strings.Join(skipped, ","))
			}
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no healthy node for shard " + key})
			return
		}
		target := n.url + r.URL.Path
		if q := r.URL.RawQuery; q != "" {
			target += "?" + q
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, target, bytes.NewReader(body))
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if t := r.Header.Get(HeaderTenant); t != "" {
			req.Header.Set(HeaderTenant, t)
		}
		resp, err := g.cfg.Client.Do(req)
		if err != nil {
			if r.Context().Err() != nil {
				// The client gave up; nothing to reroute.
				return
			}
			g.demote(n, &skipped, tried)
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Draining or dying node: demote and reroute. Its in-flight
			// jobs finish on it; new work moves to the next-best shard.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			g.demote(n, &skipped, tried)
			continue
		}
		n.routed.Add(1)
		g.m.routed.Add(1)
		g.relay(w, resp, n, key, skipped)
		return
	}
}

// demote marks a node unhealthy after a live traffic failure and records
// the reroute. The health loop re-promotes it when /healthz recovers.
func (g *Gateway) demote(n *node, skipped *[]string, tried map[*node]bool) {
	n.healthy.Store(false)
	n.rerouted.Add(1)
	g.m.reroutes.Add(1)
	tried[n] = true
	*skipped = append(*skipped, n.url)
}

// relay streams a node response to the client, flushing as bytes arrive
// so streamed ndjson lines pass through unbuffered.
func (g *Gateway) relay(w http.ResponseWriter, resp *http.Response, n *node, key string, skipped []string) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", "Location"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(HeaderShardKey, key)
	if len(skipped) > 0 {
		w.Header().Set(HeaderRerouted, strings.Join(skipped, ","))
	}
	// An async admission (202) hands back a job id that lives on this
	// node; remember it so polling follows the shard.
	if loc := resp.Header.Get("Location"); n != nil && resp.StatusCode == http.StatusAccepted && strings.HasPrefix(loc, "/v1/jobs/") {
		g.jobOwner.Store(strings.TrimPrefix(loc, "/v1/jobs/"), n.url)
	}
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		nr, err := resp.Body.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// handleJob proxies job polling to the node that owns the id.
func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if v, ok := g.jobOwner.Load(id); ok {
		g.proxyGet(w, r, v.(string)+"/v1/jobs/"+id)
		return
	}
	// Unknown id (gateway restarted, or the job predates us): ask every
	// healthy node.
	for _, n := range g.nodes {
		if !n.healthy.Load() {
			continue
		}
		resp, err := g.cfg.Client.Get(n.url + "/v1/jobs/" + id)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			g.jobOwner.Store(id, n.url)
			g.relay(w, resp, n, "", nil)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + id})
}

// proxyGet relays one GET to a node.
func (g *Gateway) proxyGet(w http.ResponseWriter, r *http.Request, url string) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		w.Header().Set(HeaderNodeUnhealthy, "owner-unreachable")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	g.relay(w, resp, nil, "", nil)
}

// healthBody is the gateway /healthz wire shape.
type healthBody struct {
	Status  string   `json:"status"`
	Healthy int      `json:"healthy_nodes"`
	Total   int      `json:"total_nodes"`
	Nodes   []string `json:"unhealthy,omitempty"`
}

// handleHealthz reports fleet readiness: 200 while at least one node is
// healthy.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	b := healthBody{Status: "ok", Total: len(g.nodes)}
	for _, n := range g.nodes {
		if n.healthy.Load() {
			b.Healthy++
		} else {
			b.Nodes = append(b.Nodes, n.url)
		}
	}
	if b.Healthy == 0 {
		b.Status = "down"
		writeJSON(w, http.StatusServiceUnavailable, b)
		return
	}
	writeJSON(w, http.StatusOK, b)
}
