// fpx-bench regenerates the paper's evaluation: every table and figure of
// §4 and §5 over the 151-program corpus.
//
//	fpx-bench                  # everything
//	fpx-bench -table 4         # one table (4, 5, 6, 7)
//	fpx-bench -figure 5        # one figure (4, 5, 6)
//	fpx-bench -movielens       # the §4.3 CuMF headline
//	fpx-bench -summary         # headline numbers only
//
// Harness knobs (none affect the measured results — simulated cycles are
// deterministic for any schedule):
//
//	fpx-bench -j 8             # fan corpus runs over 8 workers
//	fpx-bench -tool shadow     # run one tool (detector, analyzer, shadow, ...) over the corpus
//	fpx-bench -campaign BENCH_7.json  # SDC vulnerability campaigns: per-site AVF + detection coverage
//	fpx-bench -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"gpufpx/internal/bench"
	"gpufpx/internal/progs"
)

func main() {
	var (
		table      = flag.Int("table", 0, "render one table: 4, 5, 6 or 7")
		figure     = flag.Int("figure", 0, "render one figure: 4, 5 or 6")
		movielens  = flag.Bool("movielens", false, "the CuMF-Movielens headline")
		twophase   = flag.Bool("twophase", false, "the Figure 2 detector-then-analyzer workflow")
		summary    = flag.Bool("summary", false, "headline numbers only")
		toolFlag   = flag.String("tool", "", "run one tool over the whole corpus: detector, analyzer, shadow, binfpe, memcheck or plain")
		jobs       = flag.Int("j", 0, "worker goroutines for corpus runs (0 = GOMAXPROCS)")
		campaign   = flag.String("campaign", "", "run the SDC vulnerability-profiling campaigns and write the schema-7 record to this file")
		campSeed   = flag.Uint64("campaign-seed", 7, "campaign trial-plan seed (with -campaign)")
		campTrials = flag.Int("campaign-trials", 8, "fault-injection trials per instruction site (with -campaign)")
		campSites  = flag.Int("campaign-sites", 32, "max profiled sites per program (with -campaign)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	switch *table {
	case 0, 4, 5, 6, 7:
	default:
		fmt.Fprintln(os.Stderr, "fpx-bench: no such table")
		os.Exit(2)
	}
	switch *figure {
	case 0, 4, 5, 6:
	default:
		fmt.Fprintln(os.Stderr, "fpx-bench: no such figure")
		os.Exit(2)
	}

	bench.Workers = *jobs

	if *campaign != "" {
		rec, cerr := bench.Campaign(os.Stdout, *campSeed, *campTrials, *campSites)
		if cerr == nil {
			cerr = writeJSON(*campaign, rec)
		}
		if cerr != nil {
			fmt.Fprintf(os.Stderr, "fpx-bench: %v\n", cerr)
			os.Exit(1)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fpx-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fpx-bench: %v\n", err)
			os.Exit(1)
		}
	}

	err := run(*table, *figure, *movielens, *twophase, *summary, *toolFlag)

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		if werr := writeMemProfile(*memprofile); werr != nil {
			fmt.Fprintf(os.Stderr, "fpx-bench: %v\n", werr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpx-bench: %v\n", err)
		os.Exit(1)
	}
}

// run renders the requested artifacts. All-mode runs every unique run of
// the evaluation once (bench.RunSweep) and renders each artifact from the
// results; single-artifact modes run only what they render.
func run(table, figure int, movielens, twophase, summary bool, toolName string) error {
	w := os.Stdout
	all := table == 0 && figure == 0 && !movielens && !summary && !twophase

	// -tool: a single-tool corpus pass instead of the paper artifacts.
	if toolName != "" {
		t, err := bench.ParseTool(toolName)
		if err != nil {
			return err
		}
		st := bench.RunCorpus(t, bench.Options{})
		fmt.Fprintf(w, "corpus x %s: %d programs, %d hangs, %d simulated cycles, %d unique records\n",
			st.Tool, st.Programs, st.Hangs, st.Cycles, st.Records)
		return nil
	}

	switch table {
	case 4:
		bench.Table4(w, nil)
		return nil
	case 5:
		bench.Table5(w, nil)
		return nil
	case 6:
		bench.Table6(w, nil)
		return nil
	case 7:
		bench.Table7(w)
		return nil
	}

	// All-mode runs the whole evaluation plan up front, so the artifacts
	// after it only render. The sweep-only modes run just the corpus sweep.
	var s *bench.Sweep
	if all || figure == 4 || figure == 5 || summary {
		fmt.Fprintln(w, "running the corpus sweep (151 programs x 4 tool configurations)...")
		if all {
			s = bench.RunSweep()
		} else {
			s = bench.RunSweepOn(progs.All())
		}
		if err := s.Err(); err != nil {
			return err
		}
	}

	switch figure {
	case 4:
		bench.Figure4(w, s)
		return nil
	case 5:
		bench.Figure5(w, s)
		return nil
	case 6:
		bench.Figure6(w, nil, bench.PlainRuns())
		return nil
	}

	if movielens {
		bench.Movielens(w, nil)
		return nil
	}
	if twophase {
		bench.TwoPhase(w, nil)
		return nil
	}
	if summary {
		bench.Summary(w, s)
		return nil
	}

	// all mode: every artifact renders from the sweep's plan.
	hr(w)
	bench.Table4(w, s)
	hr(w)
	bench.Figure4(w, s)
	hr(w)
	bench.Figure5(w, s)
	hr(w)
	bench.Figure6(w, s, s.Plain)
	hr(w)
	bench.Table5(w, s)
	hr(w)
	bench.Table6(w, s)
	hr(w)
	bench.Table7(w)
	hr(w)
	bench.Movielens(w, s)
	hr(w)
	bench.TwoPhase(w, nil)
	hr(w)
	bench.Summary(w, s)
	return nil
}

func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

func writeJSON(path string, rec any) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func hr(w *os.File) {
	fmt.Fprintln(w, "\n────────────────────────────────────────────────────────")
}
