// fpx-stress searches a kernel's input space for exception-triggering
// inputs (the paper's §6 future-work direction, after [18]), with the
// GPU-FPX detector watching inside the kernel.
//
//	fpx-stress -kernel rsqrt          # built-in subjects: rsqrt, div, exp, norm
//	fpx-stress -kernel div -fastmath -rounds 64
//
// With -chaos it instead runs the fault-injection campaign: the corpus under
// the deterministic fault planes, twice (byte-identical fault logs required),
// then a 64-client storm against an in-process chaos-mode fpx-serve, where
// the daemon must survive and every request must terminate classified.
//
//	fpx-stress -chaos -seed 7
//	fpx-stress -chaos -seed 7 -rate 1e-3 -clients 64
//
// With -fleet it runs the sharded-fleet throughput proof: it re-execs
// itself as N serve-node child processes, mounts an fpx-gateway over them,
// drives a cycle-balanced corpus mix with closed-loop clients, repeats the
// mix against a single node at the same provisioned cycle rate, and writes
// the schema-5 record (BENCH_5.json).
//
//	fpx-stress -fleet
//	fpx-stress -fleet -fleet-nodes 3 -fleet-duration 10s -fleet-out BENCH_5.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"time"

	"gpufpx/internal/chaos"
	"gpufpx/internal/report"
	"gpufpx/internal/stress"
	"gpufpx/pkg/gpufpx"
)

func main() {
	var (
		kernel   = flag.String("kernel", "rsqrt", "built-in subject: rsqrt, div, exp, norm")
		toolF    = flag.String("tool", "detector", "watching tool for the input search: detector or shadow")
		rounds   = flag.Int("rounds", 32, "input sets to try")
		fastmath = flag.Bool("fastmath", false, "compile the subject with --use_fast_math")
		chaosOn  = flag.Bool("chaos", false, "run the fault-injection campaign instead of an input search")
		seed     = flag.Uint64("seed", 1, "fault-injection seed (with -chaos)")
		rate     = flag.Float64("rate", 1e-4, "device-plane fault rate (with -chaos)")
		clients  = flag.Int("clients", 64, "concurrent clients in the service storm (with -chaos)")
		requests = flag.Int("requests", 4, "requests per storm client (with -chaos)")
		execF    = flag.String("exec", "fused", "executor dispatch: interp, lowered or fused")

		fleetOn       = flag.Bool("fleet", false, "run the sharded-fleet throughput proof instead of an input search")
		fleetNodes    = flag.Int("fleet-nodes", 3, "serve nodes in the fleet phase (with -fleet)")
		fleetClients  = flag.Int("fleet-clients", 12, "closed-loop load clients (with -fleet)")
		fleetDuration = flag.Duration("fleet-duration", 5*time.Second, "measured window per phase (with -fleet)")
		cycleRate     = flag.Float64("cycle-rate", 1e7, "provisioned per-node capacity in cycles/s (with -fleet)")
		fleetOut      = flag.String("fleet-out", "BENCH_5.json", "where to write the schema-5 record (with -fleet)")

		// Hidden re-exec mode: -fleet spawns child copies of this binary as
		// serve nodes so each shard has its own process and compile cache.
		serveNode   = flag.Bool("serve-node", false, "")
		nodeAddr    = flag.String("node-addr", "", "")
		nodeWorkers = flag.Int("node-workers", 8, "")
	)
	flag.Parse()

	mode, err := gpufpx.ParseExecMode(*execF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpx-stress:", err)
		os.Exit(2)
	}
	gpufpx.SetDefaultExecMode(mode)

	if *serveNode {
		if err := stress.ServeNode(*nodeAddr, *cycleRate, *nodeWorkers); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "fpx-stress: serve-node:", err)
			os.Exit(1)
		}
		return
	}
	if *fleetOn {
		os.Exit(runFleet(*fleetNodes, *fleetClients, *fleetDuration, *cycleRate, *fleetOut))
	}
	if *chaosOn {
		os.Exit(runChaos(*seed, *rate, *clients, *requests))
	}

	def, ok := stress.Subjects()[*kernel]
	if !ok {
		fmt.Fprintf(os.Stderr, "fpx-stress: unknown kernel %q\n", *kernel)
		os.Exit(2)
	}
	cfg := stress.DefaultConfig()
	cfg.Rounds = *rounds
	target := &stress.Target{Def: def, N: 64, Opts: gpufpx.CompileOptions{FastMath: *fastmath}, Tool: *toolF}
	res, err := stress.Search(target, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpx-stress:", err)
		os.Exit(1)
	}
	fmt.Printf("tried %d input sets; %d unique findings; %d triggering sets\n",
		res.TriedRounds, res.TotalUniqueRecords, len(res.Findings))
	for i, f := range res.Findings {
		if i >= 5 {
			fmt.Printf("... and %d more\n", len(res.Findings)-5)
			break
		}
		fmt.Printf("input band 1e%d: %d findings (%d severe)\n", f.Band, len(f.Records)+len(f.Shadow), f.Severe)
		for j, r := range f.Records {
			if j >= 3 {
				break
			}
			fmt.Println("   ", r)
		}
		for j, sf := range f.Shadow {
			if j >= 3 {
				break
			}
			fmt.Printf("    %s @ pc %d lane %d: lost %d bits\n", sf.Kind, sf.PC, sf.Lane, sf.LostBits)
		}
	}
}

// runFleet drives the sharded-fleet throughput proof and writes the
// schema-5 record; non-zero when the fleet misses the acceptance bar.
func runFleet(nodes, clients int, duration time.Duration, cycleRate float64, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpx-stress: fleet:", err)
		return 1
	}
	rec, err := stress.RunFleet(stress.FleetConfig{
		Nodes:     nodes,
		Clients:   clients,
		Duration:  duration,
		CycleRate: cycleRate,
		StartNode: spawnNode(exe, cycleRate, clients*2),
		Out:       os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpx-stress: fleet:", err)
		return 1
	}
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpx-stress: fleet:", err)
		return 1
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "fpx-stress: fleet:", err)
		return 1
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "fpx-stress: fleet:", err)
		return 1
	}
	fmt.Printf("fleet: %d nodes %.1f req/s vs single %.1f req/s: %.2fx scale, p99 ratio %.2fx -> %s\n",
		rec.Fleet.Nodes, rec.Fleet.RPS, rec.Single.RPS, rec.Scale, rec.P99Ratio, out)
	if err := rec.Meets(report.FleetMinScale, report.FleetMaxP99Ratio); err != nil {
		fmt.Fprintln(os.Stderr, "fpx-stress: fleet:", err)
		return 1
	}
	return 0
}

// spawnNode re-execs this binary as a serve node on a fresh loopback port,
// giving each shard its own process — and therefore its own compile cache,
// which is what the per-shard cache-hit metrics in the record measure.
func spawnNode(exe string, cycleRate float64, workers int) stress.StartNodeFunc {
	return func(i int) (string, func() error, error) {
		addr, err := freeAddr()
		if err != nil {
			return "", nil, err
		}
		cmd := exec.Command(exe,
			"-serve-node",
			"-node-addr", addr,
			"-cycle-rate", fmt.Sprintf("%g", cycleRate),
			"-node-workers", fmt.Sprint(workers),
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return "", nil, err
		}
		stop := func() error {
			cmd.Process.Signal(syscall.SIGTERM)
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case err := <-done:
				return err
			case <-time.After(30 * time.Second):
				cmd.Process.Kill()
				return <-done
			}
		}
		return "http://" + addr, stop, nil
	}
}

// freeAddr grabs a free loopback port for a node child. The tiny window
// between Close and the child's Listen is acceptable for a local harness.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// runChaos drives both campaign phases and reports the verdict; non-zero on
// any broken invariant. Ctrl-C aborts the campaign promptly: the in-flight
// run stops cooperatively and the service phase still drains its daemon.
func runChaos(seed uint64, rate float64, clients, requests int) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := chaos.Config{Seed: seed, Rate: rate, Clients: clients, Requests: requests, Out: os.Stderr}

	local, err := chaos.Local(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpx-stress: chaos local:", err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	fmt.Printf("chaos local: %d faults injected, outcomes %v\n", len(local.Log), local.Outcomes)
	for i, line := range local.Log {
		if i >= 10 {
			fmt.Printf("... and %d more\n", len(local.Log)-10)
			break
		}
		fmt.Println("  ", line)
	}

	svc, err := chaos.Service(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpx-stress: chaos service:", err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	fmt.Printf("chaos service: statuses %v, unclassified %d, healthy %v\n",
		svc.Statuses, svc.Unclassified, svc.Healthy)

	ok := true
	if !local.Identical {
		fmt.Println("FAIL: concurrent pass diverged from the sequential fault log")
		ok = false
	}
	if svc.Unclassified > 0 {
		fmt.Printf("FAIL: %d requests terminated unclassified\n", svc.Unclassified)
		ok = false
	}
	if !svc.Healthy {
		fmt.Println("FAIL: daemon unhealthy or failed to drain after the storm")
		ok = false
	}
	if !ok {
		return 1
	}
	fmt.Printf("chaos: seed %d reproduced byte-identically; daemon survived %d clients\n", seed, clients)
	return 0
}
