// Package chaos is the fault-injection campaign harness behind
// fpx-stress -chaos: it drives the corpus through the deterministic fault
// planes and asserts the two properties the hardening work promises.
//
// The local phase runs every corpus program twice under the same
// fault.Plan — once sequentially, once on a worker pool — and demands
// byte-identical fault logs: determinism must survive scheduling. The
// service phase raises an fpx-serve instance in chaos mode and storms it
// with concurrent clients; the daemon must survive (healthz green, clean
// drain) and every request must terminate with a classified status, never a
// connection error or an unmapped code.
package chaos

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"gpufpx/internal/serve"
	"gpufpx/pkg/gpufpx"
	"gpufpx/pkg/gpufpx/client"
)

// Config sizes a campaign. The zero value (plus a seed) runs the defaults.
type Config struct {
	// Seed and Rate drive the fault plan (all planes).
	Seed uint64
	Rate float64
	// Programs is the corpus subset to run; empty means every program.
	Programs []string
	// Workers is the local phase's concurrent pass pool. Default 8.
	Workers int
	// Clients and Requests size the service storm: Clients concurrent
	// clients each posting Requests jobs. Defaults 64 and 4.
	Clients  int
	Requests int
	// CycleBudget caps each launch — under bit flips a corrupted loop
	// counter must terminate as KindBudget, not spin. Default 1<<26.
	CycleBudget uint64
	// Out receives progress lines; nil discards.
	Out io.Writer
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Rate == 0 {
		c.Rate = 1e-4
	}
	if len(c.Programs) == 0 {
		for _, p := range gpufpx.Programs() {
			c.Programs = append(c.Programs, p.Name)
		}
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Clients <= 0 {
		c.Clients = 64
	}
	if c.Requests <= 0 {
		c.Requests = 4
	}
	if c.CycleBudget == 0 {
		c.CycleBudget = 1 << 26
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// plan builds the campaign's fault plan.
func (c Config) plan() gpufpx.FaultPlan {
	return gpufpx.FaultPlan{Seed: c.Seed, Rate: c.Rate, Planes: gpufpx.FaultAllPlanes}
}

// LocalResult is the local (in-process) phase outcome.
type LocalResult struct {
	// Log is the first pass's fault log, one stable line per event, in
	// corpus order.
	Log []string
	// Identical reports whether the concurrent second pass reproduced the
	// log byte for byte.
	Identical bool
	// Outcomes counts run terminations by taxonomy kind ("ok" for clean).
	Outcomes map[string]int
}

// Local runs the determinism phase: the corpus under the plan, sequentially
// and then concurrently, diffing the two fault logs. Cancelling ctx aborts
// the campaign promptly — the in-flight run stops cooperatively
// (KindCanceled), no new runs start — and Local returns the context's
// error with the partial result.
func Local(ctx context.Context, cfg Config) (*LocalResult, error) {
	cfg = cfg.withDefaults()
	plan := cfg.plan()

	runOne := func(name string) (lines []string, outcome string) {
		s := gpufpx.New(
			gpufpx.WithCycleBudget(cfg.CycleBudget),
			gpufpx.WithFaults(plan),
		)
		rep, err := s.Run(ctx, gpufpx.Program(name))
		outcome = "ok"
		if err != nil {
			outcome = gpufpx.Classify(err).String()
		}
		if rep != nil {
			for _, e := range rep.Faults {
				lines = append(lines, e.String())
			}
		}
		return lines, outcome
	}

	res := &LocalResult{Outcomes: map[string]int{}}

	// Pass 1: sequential, the reference log.
	for _, name := range cfg.Programs {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("chaos: local campaign aborted: %w", err)
		}
		lines, outcome := runOne(name)
		res.Log = append(res.Log, lines...)
		res.Outcomes[outcome]++
		fmt.Fprintf(cfg.Out, "chaos: local %s: %s (%d faults)\n", name, outcome, len(lines))
	}

	// Pass 2: the same corpus on a worker pool. Per-run logs are assembled
	// back in corpus order — determinism is per run key, and the assembled
	// whole must match the sequential reference exactly.
	second := make([][]string, len(cfg.Programs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Workers)
	for i, name := range cfg.Programs {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return
			}
			lines, _ := runOne(name)
			second[i] = lines
		}(i, name)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("chaos: local campaign aborted: %w", err)
	}

	var flat []string
	for _, lines := range second {
		flat = append(flat, lines...)
	}
	res.Identical = len(flat) == len(res.Log)
	if res.Identical {
		for i := range flat {
			if flat[i] != res.Log[i] {
				res.Identical = false
				break
			}
		}
	}
	return res, nil
}

// ServiceResult is the service storm outcome.
type ServiceResult struct {
	// Statuses counts terminal HTTP statuses across all requests.
	Statuses map[int]int
	// Unclassified counts requests that ended outside the allowed status
	// set — transport errors (a dead daemon) included. Must be zero.
	Unclassified int
	// Healthy reports the daemon answered /healthz 200 after the storm and
	// drained cleanly.
	Healthy bool
}

// allowedStatus is the classified-outcome contract: every request under
// chaos terminates with one of these.
var allowedStatus = map[int]bool{
	http.StatusOK:                  true, // clean report
	http.StatusAccepted:            true, // async admission
	http.StatusRequestTimeout:      true, // budget
	http.StatusUnprocessableEntity: true, // bad source / compile
	http.StatusTooManyRequests:     true, // backpressure (retries exhausted)
	499:                            true, // canceled
	http.StatusInternalServerError: true, // recovered panic
	http.StatusGatewayTimeout:      true, // hang
	http.StatusInsufficientStorage: true, // device resource fault
}

// Service runs the storm phase against an in-process chaos-mode server.
// Cancelling ctx aborts the storm promptly — clients stop issuing requests
// and in-flight ones cancel — but the daemon is still health-checked and
// drained cleanly before Service returns the context's error with the
// partial result: an operator abort must not leak the server.
func Service(ctx context.Context, cfg Config) (*ServiceResult, error) {
	cfg = cfg.withDefaults()

	srv := serve.New(serve.Config{
		// A deliberately small queue so the storm also exercises 429
		// backpressure and the client's retry discipline.
		QueueDepth:         cfg.Clients / 2,
		DefaultCycleBudget: cfg.CycleBudget,
		Faults:             cfg.plan(),
	})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The request mix: corpus programs round-robin, with every fifth
	// request a malformed SASS listing (exercising the 422 path) and every
	// seventh a raw-SASS kernel.
	reqFor := func(ci, seq int) serve.CheckRequest {
		n := ci*cfg.Requests + seq
		switch {
		case n%5 == 4:
			return serve.CheckRequest{SASS: "FMUL R2, R3 ;\nEXIT ;", Name: "bad.sass", Wait: true}
		case n%7 == 6:
			return serve.CheckRequest{SASS: "FADD R2, RZ, -QNAN ;\nEXIT ;", Name: "nan.sass", Wait: true}
		default:
			return serve.CheckRequest{Prog: cfg.Programs[n%len(cfg.Programs)], Wait: true}
		}
	}

	res := &ServiceResult{Statuses: map[int]int{}}
	var mu sync.Mutex
	record := func(status int, classified bool) {
		mu.Lock()
		defer mu.Unlock()
		res.Statuses[status]++
		if !classified {
			res.Unclassified++
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := client.New(ts.URL, client.Config{
				Seed:             uint64(i) + 1,
				MaxRetries:       8,
				BaseDelay:        2 * time.Millisecond,
				MaxDelay:         20 * time.Millisecond,
				BreakerThreshold: -1, // the storm wants every failure on the wire
			})
			for j := 0; j < cfg.Requests; j++ {
				if ctx.Err() != nil {
					return
				}
				_, err := cl.Check(ctx, reqFor(i, j))
				switch e := err.(type) {
				case nil:
					record(http.StatusOK, true)
				case *client.APIError:
					record(e.Status, allowedStatus[e.Status])
				default:
					if ctx.Err() != nil {
						// The abort raced an in-flight request; not a
						// daemon failure.
						return
					}
					// Transport-level failure: the daemon dropped the
					// connection or died — exactly what must not happen.
					record(-1, false)
				}
			}
		}(i)
	}
	wg.Wait()

	// The daemon must still be alive and drain cleanly — even (especially)
	// when the storm was aborted, so the drain runs on its own timeout, not
	// the aborted ctx.
	healthy := false
	if resp, err := http.Get(ts.URL + "/healthz"); err == nil {
		healthy = resp.StatusCode == http.StatusOK
		resp.Body.Close()
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res.Healthy = healthy && srv.Drain(drainCtx) == nil

	for _, status := range sortedStatuses(res.Statuses) {
		fmt.Fprintf(cfg.Out, "chaos: service status %d: %d\n", status, res.Statuses[status])
	}
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("chaos: service storm aborted: %w", err)
	}
	return res, nil
}

// sortedStatuses returns the statuses seen, ascending, so the storm's
// status lines print in the same order on every run.
func sortedStatuses(counts map[int]int) []int {
	statuses := make([]int, 0, len(counts))
	for status := range counts {
		statuses = append(statuses, status)
	}
	sort.Ints(statuses)
	return statuses
}
