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
//	fpx-bench -tool shadow     # time one tool (detector, analyzer, shadow, ...) over the corpus
//	fpx-bench -json perf.json  # machine-readable wall-clock record
//	fpx-bench -compare old.json  # print per-artifact deltas vs a saved record
//	fpx-bench -campaign BENCH_7.json  # SDC vulnerability campaigns: per-site AVF + detection coverage
//	fpx-bench -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"gpufpx/internal/bench"
	"gpufpx/internal/progs"
	"gpufpx/pkg/gpufpx"
)

// perfSchema versions the -json record layout; BENCH_<schema>.json at the
// repo root tracks the perf trajectory across PRs.
const perfSchema = 5

// perfRecord is the -json output: the harness's own performance, kept
// separate from the simulated results it measures.
type perfRecord struct {
	Schema         int              `json:"schema"`
	Workers        int              `json:"workers"`
	GOMAXPROCS     int              `json:"gomaxprocs"`
	Artifacts      []artifactTiming `json:"artifacts"`
	TotalWallMS    float64          `json:"total_wall_ms"`
	SweepCycles    uint64           `json:"sweep_total_cycles,omitempty"`
	GeomeanSpeedup float64          `json:"geomean_speedup,omitempty"`
	Hangs          int              `json:"hangs"`
	CacheHits      uint64           `json:"compile_cache_hits"`
	CacheMisses    uint64           `json:"compile_cache_misses"`
	LoweredKernels uint64           `json:"lowered_kernels"`
	LoweredInstrs  uint64           `json:"lowered_instrs"`
	UniformSites   uint64           `json:"lowered_uniform_sites"`
	NopSites       uint64           `json:"lowered_nop_sites"`
	// Schema 3: instrumentation-lowering counters from the fpx tools.
	AnalyzerSites    uint64 `json:"analyzer_sites"`
	AnalyzerUniform  uint64 `json:"analyzer_uniform_sites"`
	AnalyzerConstOps uint64 `json:"analyzer_const_operands"`
	DetectorSites    uint64 `json:"detector_sites"`
	// Schema 5: shadow-sanitizer site programs compiled.
	ShadowSites uint64 `json:"shadow_sites"`
	// Schema 4: superinstruction-fusion counters. Baselines may carry
	// extra hot_* counters; decoding ignores unknown fields.
	FusedKernels  uint64 `json:"fused_kernels"`
	FusedRegions  uint64 `json:"fused_regions"`
	FusedInstrs   uint64 `json:"fused_instrs"`
	FusedChainOps uint64 `json:"fused_chain_ops"`
}

type artifactTiming struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
}

func (r *perfRecord) timed(name string, fn func()) {
	start := time.Now()
	fn()
	r.Artifacts = append(r.Artifacts, artifactTiming{
		Name:   name,
		WallMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

func main() {
	var (
		table      = flag.Int("table", 0, "render one table: 4, 5, 6 or 7")
		figure     = flag.Int("figure", 0, "render one figure: 4, 5 or 6")
		movielens  = flag.Bool("movielens", false, "the CuMF-Movielens headline")
		twophase   = flag.Bool("twophase", false, "the Figure 2 detector-then-analyzer workflow")
		summary    = flag.Bool("summary", false, "headline numbers only")
		toolFlag   = flag.String("tool", "", "time one tool over the whole corpus: detector, analyzer, shadow, binfpe, memcheck or plain")
		jobs       = flag.Int("j", 0, "worker goroutines for corpus runs (0 = GOMAXPROCS)")
		campaign   = flag.String("campaign", "", "run the SDC vulnerability-profiling campaigns and write the schema-7 record to this file")
		campSeed   = flag.Uint64("campaign-seed", 7, "campaign trial-plan seed (with -campaign)")
		campTrials = flag.Int("campaign-trials", 8, "fault-injection trials per instruction site (with -campaign)")
		campSites  = flag.Int("campaign-sites", 32, "max profiled sites per program (with -campaign)")
		jsonPath   = flag.String("json", "", "write a machine-readable perf record to this file")
		compare    = flag.String("compare", "", "print per-artifact deltas against this baseline perf record")
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

	rec := &perfRecord{
		Schema:     perfSchema,
		Workers:    *jobs,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	start := time.Now()
	err := run(*table, *figure, *movielens, *twophase, *summary, *toolFlag, rec)
	rec.TotalWallMS = float64(time.Since(start)) / float64(time.Millisecond)
	hs := gpufpx.Stats()
	rec.CacheHits, rec.CacheMisses = hs.CompileCacheHits, hs.CompileCacheMisses
	rec.LoweredKernels, rec.LoweredInstrs = hs.LoweredKernels, hs.LoweredInstrs
	rec.UniformSites, rec.NopSites = hs.UniformSites, hs.NopSites
	rec.AnalyzerSites, rec.AnalyzerUniform = hs.AnalyzerSites, hs.AnalyzerUniformSites
	rec.AnalyzerConstOps, rec.DetectorSites = hs.AnalyzerConstOperands, hs.DetectorSites
	rec.ShadowSites = hs.ShadowSites
	rec.FusedKernels, rec.FusedRegions = hs.FusedKernels, hs.FusedRegions
	rec.FusedInstrs, rec.FusedChainOps = hs.FusedInstrs, hs.FusedChainOps

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		if werr := writeMemProfile(*memprofile); werr != nil {
			fmt.Fprintf(os.Stderr, "fpx-bench: %v\n", werr)
		}
	}
	if *jsonPath != "" {
		if werr := writeJSON(*jsonPath, rec); werr != nil {
			fmt.Fprintf(os.Stderr, "fpx-bench: %v\n", werr)
			os.Exit(1)
		}
	}
	if *compare != "" {
		if cerr := printCompare(os.Stdout, *compare, rec); cerr != nil {
			fmt.Fprintf(os.Stderr, "fpx-bench: %v\n", cerr)
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpx-bench: %v\n", err)
		os.Exit(1)
	}
}

// printCompare renders this run's per-artifact wall-clock against a saved
// perf record, flagging regressions with a sign and ratio. Artifacts present
// on only one side are listed without a delta. A baseline without artifact
// timings is some other kind of record (BENCH_5, 6 and 7 are fleet,
// block-parallel and campaign records) and is refused rather than read as
// an empty perf record.
func printCompare(w io.Writer, path string, rec *perfRecord) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base perfRecord
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("parsing %s: %v", path, err)
	}
	if len(base.Artifacts) == 0 {
		return fmt.Errorf("%s is not a perf record (schema %d, no artifacts)", path, base.Schema)
	}
	fmt.Fprintf(w, "\nperf vs %s (baseline j=%d, this run j=%d)\n", path, base.Workers, rec.Workers)
	fmt.Fprintf(w, "%-16s %12s %12s %9s\n", "artifact", "base ms", "now ms", "delta")
	baseBy := make(map[string]float64, len(base.Artifacts))
	for _, a := range base.Artifacts {
		baseBy[a.Name] = a.WallMS
	}
	for _, a := range rec.Artifacts {
		bms, ok := baseBy[a.Name]
		if !ok {
			fmt.Fprintf(w, "%-16s %12s %12.1f %9s\n", a.Name, "—", a.WallMS, "new")
			continue
		}
		delete(baseBy, a.Name)
		fmt.Fprintf(w, "%-16s %12.1f %12.1f %+8.1f%%\n", a.Name, bms, a.WallMS, pctDelta(bms, a.WallMS))
	}
	for _, a := range base.Artifacts {
		if _, stillThere := baseBy[a.Name]; stillThere {
			fmt.Fprintf(w, "%-16s %12.1f %12s %9s\n", a.Name, a.WallMS, "—", "gone")
		}
	}
	fmt.Fprintf(w, "%-16s %12.1f %12.1f %+8.1f%%\n", "total", base.TotalWallMS, rec.TotalWallMS,
		pctDelta(base.TotalWallMS, rec.TotalWallMS))
	return nil
}

// pctDelta returns the signed percentage change from base to now (negative
// is faster).
func pctDelta(base, now float64) float64 {
	if base == 0 {
		return 0
	}
	return (now - base) / base * 100
}

// run renders the requested artifacts. All-mode runs every unique run of
// the evaluation once (bench.RunSweep) and renders each artifact from the
// results; single-artifact modes measure only what they render.
func run(table, figure int, movielens, twophase, summary bool, toolName string, rec *perfRecord) error {
	w := os.Stdout
	all := table == 0 && figure == 0 && !movielens && !summary && !twophase

	// -tool: a single-tool corpus timing pass instead of the paper artifacts.
	if toolName != "" {
		t, err := bench.ParseTool(toolName)
		if err != nil {
			return err
		}
		var st bench.CorpusStats
		rec.timed("corpus-"+toolName, func() { st = bench.RunCorpus(t, bench.Options{}) })
		rec.Hangs = st.Hangs
		fmt.Fprintf(w, "corpus x %s: %d programs, %d hangs, %d simulated cycles, %d unique records\n",
			st.Tool, st.Programs, st.Hangs, st.Cycles, st.Records)
		return nil
	}

	switch table {
	case 4:
		rec.timed("table4", func() { bench.Table4(w, nil) })
		return nil
	case 5:
		rec.timed("table5", func() { bench.Table5(w, nil) })
		return nil
	case 6:
		rec.timed("table6", func() { bench.Table6(w, nil) })
		return nil
	case 7:
		rec.timed("table7", func() { bench.Table7(w) })
		return nil
	}

	// All-mode runs the whole evaluation plan up front, so "sweep" times
	// every artifact's runs and the artifacts after it only render. The
	// sweep-only modes run just the corpus sweep.
	var s *bench.Sweep
	if all || figure == 4 || figure == 5 || summary {
		fmt.Fprintln(w, "running the corpus sweep (151 programs x 4 tool configurations)...")
		var err error
		rec.timed("sweep", func() {
			if all {
				s = bench.RunSweep()
			} else {
				s = bench.RunSweepOn(progs.All())
			}
			err = s.Err()
		})
		if err != nil {
			return err
		}
		rec.SweepCycles = s.TotalCycles()
		rec.GeomeanSpeedup = s.GeomeanSpeedup()
		rec.Hangs = s.Hangs()
	}

	switch figure {
	case 4:
		rec.timed("figure4", func() { bench.Figure4(w, s) })
		return nil
	case 5:
		rec.timed("figure5", func() { bench.Figure5(w, s) })
		return nil
	case 6:
		var plain []bench.RunResult
		rec.timed("plain-baseline", func() { plain = bench.PlainRuns() })
		rec.timed("figure6", func() { bench.Figure6(w, nil, plain) })
		return nil
	}

	if movielens {
		rec.timed("movielens", func() { bench.Movielens(w, nil) })
		return nil
	}
	if twophase {
		rec.timed("twophase", func() { bench.TwoPhase(w, nil) })
		return nil
	}
	if summary {
		rec.timed("summary", func() { bench.Summary(w, s) })
		return nil
	}

	// all mode: every artifact renders from the sweep's plan.
	hr(w)
	rec.timed("table4", func() { bench.Table4(w, s) })
	hr(w)
	rec.timed("figure4", func() { bench.Figure4(w, s) })
	hr(w)
	rec.timed("figure5", func() { bench.Figure5(w, s) })
	hr(w)
	rec.timed("figure6", func() { bench.Figure6(w, s, s.Plain) })
	hr(w)
	rec.timed("table5", func() { bench.Table5(w, s) })
	hr(w)
	rec.timed("table6", func() { bench.Table6(w, s) })
	hr(w)
	rec.timed("table7", func() { bench.Table7(w) })
	hr(w)
	rec.timed("movielens", func() { bench.Movielens(w, s) })
	hr(w)
	rec.timed("twophase", func() { bench.TwoPhase(w, nil) })
	hr(w)
	rec.timed("summary", func() { bench.Summary(w, s) })
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
