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
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"gpufpx/internal/chaos"
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
	)
	flag.Parse()

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
