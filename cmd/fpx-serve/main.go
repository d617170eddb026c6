// fpx-serve is the GPU-FPX exception-checking service: an HTTP daemon that
// accepts kernels — corpus programs or raw SASS — and returns versioned
// detector/analyzer reports. It is built entirely on the public
// gpufpx.Session facade; every job gets a private simulated device while
// sharing the process-wide compile and lowering caches.
//
//	fpx-serve -addr :8080 -queue 64 -budget 67108864
//
//	curl -s localhost:8080/v1/check -d '{
//	  "sass": "FADD R2, RZ, -QNAN ;\nEXIT ;",
//	  "name": "nan.sass", "wait": true
//	}'
//
// Endpoints: POST /v1/check (sync with "wait": true, else 202 + job id),
// POST /v1/batch, POST /v1/profile (SDC vulnerability campaigns; async with
// durable progress, checkpointed under -campaign-dir), GET /v1/jobs/{id},
// GET /healthz, GET /metrics. A full queue answers 429; SIGTERM drains:
// admission stops (503), queued and running jobs finish — campaigns are
// canceled with their checkpoints persisted — then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpufpx/internal/serve"
	"gpufpx/pkg/gpufpx"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		queue   = flag.Int("queue", 64, "job queue depth (enqueue past it answers 429)")
		workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		budget  = flag.Uint64("budget", 0, "default per-launch dynamic-instruction budget (0 = device stock budget)")
		maxBody = flag.Int64("max-body", 8<<20, "request body size limit in bytes")
		drainT  = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight jobs on shutdown")
		chaos   = flag.Bool("chaos", false, "enable deterministic fault injection on all planes")
		seed    = flag.Uint64("seed", 1, "fault-injection seed (with -chaos)")
		rate    = flag.Float64("rate", 1e-4, "device-plane fault rate (with -chaos)")
		execF   = flag.String("exec", "fused", "default executor for jobs that do not pin one: interp, lowered or fused")
		cycRate = flag.Float64("cycle-rate", 0, "node capacity in simulated cycles/sec (0 = unlimited); fleet benchmarks pin this")
		campDir = flag.String("campaign-dir", "", "checkpoint root for POST /v1/profile campaigns (empty = no persistence; drained campaigns resume on re-POST when set)")
		campWrk = flag.Int("campaign-workers", 0, "trial fan-out per campaign (0/1 = sequential; profiles are byte-identical either way)")
	)
	flag.Parse()

	mode, err := gpufpx.ParseExecMode(*execF)
	if err != nil {
		log.Fatalf("fpx-serve: %v", err)
	}
	gpufpx.SetDefaultExecMode(mode)

	cfg := serve.Config{
		QueueDepth:         *queue,
		Workers:            *workers,
		DefaultCycleBudget: *budget,
		MaxBodyBytes:       *maxBody,
		CycleRate:          *cycRate,
		CampaignDir:        *campDir,
		CampaignWorkers:    *campWrk,
	}
	if *chaos {
		plan := gpufpx.DefaultFaultPlan(*seed)
		plan.Rate = *rate
		cfg.Faults = plan
		log.Printf("fpx-serve: chaos mode on (seed %d, rate %g)", *seed, *rate)
	}
	srv := serve.New(cfg)
	srv.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("fpx-serve: listening on %s (queue %d)", *addr, *queue)

	select {
	case err := <-errCh:
		log.Fatalf("fpx-serve: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, then let queued and
	// in-flight jobs run to completion (bounded).
	log.Printf("fpx-serve: signal received, draining")
	shCtx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		log.Printf("fpx-serve: http shutdown: %v", err)
	}
	if err := srv.Drain(shCtx); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("fpx-serve: drain: %v", err)
		os.Exit(1)
	}
	log.Printf("fpx-serve: drained cleanly")
}
