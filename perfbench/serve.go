package main

// The checking-service workloads. Both boot the real serve handler on a
// loopback listener in this process (default config: workers = GOMAXPROCS,
// no block parallelism) and drive it with closed-loop clients, one
// keep-alive connection each: every client sends its next POST /v1/check
// with "wait": true only after the previous reply arrived, as the CI-gate
// client does.
//
//	check-mix          corpus ∪ precision suite × {detector, analyzer,
//	                   shadow}; every 200 body must byte-equal the body
//	                   built from Session.Run of the same pair.
//	check-sass-unique  never-seen generated SASS listings under the
//	                   detector; the planted exception must be reported at
//	                   its planted PC.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"gpufpx/internal/cc"
	"gpufpx/internal/serve"
	"gpufpx/pkg/gpufpx"
)

// maxClients caps the closed-loop clients at 2, the core count the
// benchmark was tuned on, so a wider host does not change the offered load.
const maxClients = 2

func numClients() int { return max(1, min(maxClients, runtime.NumCPU())) }

// service is an in-process fpx-serve on a loopback port.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

// startService boots the checking service with its default configuration.
func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := serve.New(serve.Config{})
	srv.Start()
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String() + "/v1/check",
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: maxClients,
			DisableCompression:  true,
		}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the listener down, waits for Serve to return and drains the
// worker pool.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// post sends one check request and returns the status and body.
func (s *service) post(body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// clientWindow runs the closed-loop clients. Each client first sends
// prefix requests (the fixed work after which the live heap is read), then
// all clients send until d has elapsed; in a traced window each client's
// requests pair up, one of each pair traced, and it stops on a whole pair.
// req performs client c's k-th request (twin: it is the second of a traced
// window's pair) and returns its output-check error; it is counted against
// the run either way.
func clientWindow(r *run, d time.Duration, prefix int, tr *tracer, req func(c, k int, twin bool) error) (phase, float64) {
	n := numClients()
	lats := make([][]float64, n)
	next := make([]int, n)
	loop := func(tr *tracer, stop func(sent int) bool) {
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for sent := 0; !stop(sent); sent++ {
					k := next[c]
					next[c]++
					otr := opTracer(tr, sent)
					id := otr.start("serve.request", 0, k, c)
					t0 := time.Now()
					err := req(c, k, tr != nil && sent%2 == 1)
					dt := time.Since(t0)
					otr.end(id)
					r.count(err)
					lats[c] = append(lats[c], ms(dt))
				}
			}(c)
		}
		wg.Wait()
	}

	loop(nil, func(sent int) bool { return sent >= prefix })
	heapMB := liveHeapMB()
	for c := range lats {
		lats[c] = lats[c][:0]
	}

	var p phase
	cpu0, t0 := cpuTime(), time.Now()
	deadline := t0.Add(d)
	loop(tr, func(sent int) bool { return !time.Now().Before(deadline) && (tr == nil || sent%2 == 0) })
	p.wall, p.cpu = time.Since(t0), cpuTime()-cpu0
	for _, l := range lats {
		p.lat = append(p.lat, l...)
	}
	p.seqs = lats
	p.units = float64(len(p.lat))
	return p, heapMB
}

// ---- check-mix ----

// mixTools are the report-bearing tools the mix draws from.
var mixTools = []string{"detector", "analyzer", "shadow"}

// mixPair is one (program, tool) request of the mix: the wire tool name
// and the session tool the service builds for it.
type mixPair struct {
	prog, tool string
	t          gpufpx.Tool
}

func mixPairs() ([]mixPair, error) {
	var out []mixPair
	infos := append(gpufpx.Programs(), gpufpx.PrecisionPrograms()...)
	for _, name := range mixTools {
		t, err := gpufpx.ParseTool(name)
		if err != nil {
			return nil, err
		}
		for _, p := range infos {
			out = append(out, mixPair{p.Name, name, t})
		}
	}
	return out, nil
}

// expected runs the pair through Session.Run, as the service does, and
// renders the job view the service must reply with.
func (p mixPair) expected() ([]byte, error) {
	rep, err := gpufpx.New(gpufpx.WithTool(p.t),
		gpufpx.WithCompile(gpufpx.CompileOptions{Arch: gpufpx.ArchAmpere})).
		Run(context.Background(), gpufpx.Program(p.prog))
	if err != nil {
		return nil, err
	}
	return expectedTail(rep)
}

// idHead is how every job view body begins; the job id follows it.
var idHead = []byte("{\n  \"id\": \"")

// expectedTail renders the job view the service returns for a finished
// report, from the byte after the job id's opening quote's value on — the
// id itself differs per request.
func expectedTail(rep *gpufpx.Report) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(serve.JobView{
		Status:   serve.StatusDone,
		Tool:     rep.Tool,
		Cycles:   rep.Cycles,
		Launches: rep.Launches,
		Detector: rep.Detector,
		Analyzer: rep.Analyzer,
		Shadow:   rep.Shadow,
	})
	if err != nil {
		return nil, err
	}
	b := buf.Bytes()
	if !bytes.HasPrefix(b, idHead) {
		return nil, fmt.Errorf("job view encoding does not start with the id")
	}
	return b[len(idHead):], nil
}

// checkMixBody verifies a check-mix reply: status 200 and a body that is
// the expected job view around whatever job id the service assigned.
func checkMixBody(status int, body, tail []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if !bytes.HasPrefix(body, idHead) {
		return fmt.Errorf("body does not start with a job id")
	}
	rest := body[len(idHead):]
	end := bytes.IndexByte(rest, '"')
	if end < 0 || !bytes.Equal(rest[end:], tail) {
		return fmt.Errorf("body differs from the Session.Run report (%d vs %d bytes)", len(rest)-max(end, 0), len(tail))
	}
	return nil
}

// mixState is one check-mix setup's product: the running service and the
// expected reply of every pair.
type mixState struct {
	svc   *service
	pairs []mixPair
	tails [][]byte
}

// mixSetup starts from an empty compile cache, boots the service and runs
// the warm pass: Session.Run of every pair (fanned over GOMAXPROCS), which
// compiles, lowers and fuses every kernel and yields the expected bodies.
func mixSetup() (*mixState, error) {
	cc.ResetCache()
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	pairs, err := mixPairs()
	if err != nil {
		svc.close()
		return nil, err
	}
	st := &mixState{svc: svc, pairs: pairs}
	st.tails = make([][]byte, len(st.pairs))
	errs := make([]error, len(st.pairs))
	parallelFor(len(st.pairs), func(i int) {
		p := st.pairs[i]
		var err error
		if st.tails[i], err = p.expected(); err != nil {
			errs[i] = fmt.Errorf("%s/%s: %w", p.prog, p.tool, err)
		}
	})
	if err := errors.Join(errs...); err != nil {
		svc.close()
		return nil, err
	}
	cc.WaitBackground()
	return st, nil
}

// mixBody is the wire request for a pair.
func mixBody(p mixPair) []byte {
	return []byte(fmt.Sprintf(`{"prog":%q,"tool":%q,"wait":true}`, p.prog, p.tool))
}

// deck deals pair indices in seeded shuffles of the whole set: uniform over
// pairs, and every pair once per deck, so a window's mix of heavy and light
// programs does not depend on luck.
type deck struct {
	rng   splitmix64
	cards []int
	pos   int
}

func newDeck(seed uint64, n int) *deck {
	d := &deck{rng: splitmix64(seed), cards: make([]int, n), pos: n}
	for i := range d.cards {
		d.cards[i] = i
	}
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.cards) {
		for i := len(d.cards) - 1; i > 0; i-- {
			j := d.rng.intn(i + 1)
			d.cards[i], d.cards[j] = d.cards[j], d.cards[i]
		}
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

// mixPrefix is each client's fixed-work prefix before the heap reading.
const mixPrefix = 150

func runCheckMix(r *run) error {
	var st *mixState
	var ref [][]byte
	setups, err := setupN(r, 3, func() error {
		if st != nil {
			if err := st.svc.close(); err != nil {
				return err
			}
		}
		var err error
		if st, err = mixSetup(); err != nil {
			return err
		}
		// Every set-up must produce the same expected replies.
		if ref == nil {
			ref = st.tails
		}
		for i := range ref {
			if !bytes.Equal(ref[i], st.tails[i]) {
				return fmt.Errorf("%s/%s: report differs between set-ups", st.pairs[i].prog, st.pairs[i].tool)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer st.svc.close()

	n := numClients()
	bodies := make([][]byte, len(st.pairs))
	for i, p := range st.pairs {
		bodies[i] = mixBody(p)
	}
	win := func(d time.Duration, tr *tracer) (phase, float64, error) {
		decks := make([]*deck, n)
		for c := range decks {
			decks[c] = newDeck(r.seed*0x9E3779B97F4A7C15+uint64(c), len(st.pairs))
		}
		var (
			mu          sync.Mutex
			seen        = make(map[int]bool)
			draws, reps int
			cur         = make([]int, n)
		)
		p, heapMB := clientWindow(r, d, mixPrefix, tr, func(c, _ int, twin bool) error {
			// A traced window sends each drawn pair twice, traced and
			// untraced, so the difference is the tracing alone; only
			// draws count towards the repeated-pair share.
			if !twin {
				cur[c] = decks[c].next()
				mu.Lock()
				draws++
				if seen[cur[c]] {
					reps++
				}
				seen[cur[c]] = true
				mu.Unlock()
			}
			i := cur[c]
			status, body, err := st.svc.post(bodies[i])
			if err != nil {
				return fmt.Errorf("%s/%s: %w", st.pairs[i].prog, st.pairs[i].tool, err)
			}
			if err := checkMixBody(status, body, st.tails[i]); err != nil {
				return fmt.Errorf("%s/%s: %w", st.pairs[i].prog, st.pairs[i].tool, err)
			}
			return nil
		})
		share := float64(reps) / float64(draws)
		fmt.Printf("check-mix: %d requests, %d draws over %d pairs, repeated-pair share %.4f\n", n*mixPrefix+len(p.lat), draws, len(st.pairs), share)
		if tr != nil {
			r.set("serve.repeat_share", share, "ratio")
		}
		return p, heapMB, nil
	}
	return r.measure(setups, win)
}

// ---- check-sass-unique ----

// sassPrefix is each client's fixed-work prefix before the heap reading.
const sassPrefix = 500

// warmListings is how many listings each set-up sends through the service.
const warmListings = 96

// sassBody is the wire request for a generated listing.
func sassBody(l listing) ([]byte, error) {
	return json.Marshal(serve.CheckRequest{
		SASS: l.Text, Name: l.Name, Grid: l.Grid, Block: l.Block,
		Tool: "detector", Wait: true,
	})
}

// plantedView is the part of a detector job view the planted check reads.
type plantedView struct {
	Status   string `json:"status"`
	Detector *struct {
		Records []struct {
			PC        int    `json:"pc"`
			Exception string `json:"exception"`
			Kernel    string `json:"kernel"`
		} `json:"records"`
	} `json:"detector"`
}

// checkPlanted verifies a check-sass-unique reply: status 200 and a
// detector record of the planted exception at the planted PC.
func checkPlanted(status int, body []byte, l listing) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", l.Name, status, body)
	}
	var v plantedView
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("%s: decoding reply: %w", l.Name, err)
	}
	if v.Status != serve.StatusDone || v.Detector == nil {
		return fmt.Errorf("%s: status %q without a detector report", l.Name, v.Status)
	}
	for _, rec := range v.Detector.Records {
		if rec.PC == l.PlantPC && rec.Exception == l.PlantExc && rec.Kernel == l.Name {
			return nil
		}
	}
	return fmt.Errorf("%s: planted %s at pc %d not reported", l.Name, l.PlantExc, l.PlantPC)
}

// sendListing posts one listing and checks the reply.
func sendListing(svc *service, l listing) error {
	body, err := sassBody(l)
	if err != nil {
		return err
	}
	status, resp, err := svc.post(body)
	if err != nil {
		return fmt.Errorf("%s: %w", l.Name, err)
	}
	return checkPlanted(status, resp, l)
}

func runSASSUnique(r *run) error {
	var svc *service
	// Set-up listings come from a fixed stream of their own: none of them
	// repeats in the measured window, and every seed sets up alike.
	const warmSeed = 0x5bd1e9955bd1e995
	warmNext := 0
	setups, err := setupN(r, 12, func() error {
		if svc != nil {
			if err := svc.close(); err != nil {
				return err
			}
		}
		cc.ResetCache()
		var err error
		if svc, err = startService(); err != nil {
			return err
		}
		for i := 0; i < warmListings; i++ {
			if err := sendListing(svc, genListing(warmSeed, warmNext)); err != nil {
				return err
			}
			warmNext++
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer svc.close()

	n := numClients()
	base := 0 // listing numbers already used by earlier windows
	win := func(d time.Duration, tr *tracer) (phase, float64, error) {
		used := 0
		var mu sync.Mutex
		p, heapMB := clientWindow(r, d, sassPrefix, tr, func(c, k int, _ bool) error {
			num := base + k*n + c
			mu.Lock()
			used = max(used, num+1)
			mu.Unlock()
			return sendListing(svc, genListing(r.seed, num))
		})
		base = used
		fmt.Printf("check-sass-unique: %d distinct listings, repeated share 0\n", n*sassPrefix+len(p.lat))
		if tr != nil {
			r.set("serve.repeat_share", 0, "ratio")
		}
		return p, heapMB, nil
	}
	return r.measure(setups, win)
}
