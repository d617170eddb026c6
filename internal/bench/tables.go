package bench

import (
	"fmt"
	"io"

	"gpufpx/internal/cc"
	"gpufpx/internal/fpval"
	"gpufpx/internal/fpx"
	"gpufpx/internal/progs"
)

// Row8 is one exception-count row: FP64 then FP32, each NaN/INF/SUB/DIV0.
type Row8 [8]int

// rowOf converts a detector summary.
func rowOf(s fpx.Summary) Row8 {
	return Row8{
		s.Get(fpval.FP64, fpval.ExcNaN), s.Get(fpval.FP64, fpval.ExcInf),
		s.Get(fpval.FP64, fpval.ExcSub), s.Get(fpval.FP64, fpval.ExcDiv0),
		s.Get(fpval.FP32, fpval.ExcNaN), s.Get(fpval.FP32, fpval.ExcInf),
		s.Get(fpval.FP32, fpval.ExcSub), s.Get(fpval.FP32, fpval.ExcDiv0),
	}
}

// Table4Row is one program's detection result.
type Table4Row struct {
	Suite, Program string
	Counts         Row8
}

const countHeader = "NaN64 INF64 SUB64 DIV64 | NaN32 INF32 SUB32 DIV32"

func printCounts(w io.Writer, c Row8) {
	fmt.Fprintf(w, "%5d %5d %5d %5d | %5d %5d %5d %5d", c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7])
}

// Table4 reports every corpus program with meaningful exceptions under the
// full GPU-FPX detector — the paper's Table 4. The runs are the sweep's
// GPU-FPX column; pass nil to measure fresh.
func Table4(w io.Writer, s *Sweep) []Table4Row {
	ps := progs.All()
	pl := planOf(s)
	var n need
	for _, p := range ps {
		n.runs = append(n.runs, keyed{p, keyOf(p, ToolFPX, Options{})})
	}
	pl.fill(n)
	var rows []Table4Row
	fmt.Fprintf(w, "Table 4: exceptions detected by GPU-FPX (%s)\n", countHeader)
	for _, p := range ps {
		if p.Meaningless {
			continue
		}
		r := mustOK(pl.result(p, keyOf(p, ToolFPX, Options{})))
		if !r.Summary.HasAny() {
			continue
		}
		row := Table4Row{Suite: p.Suite, Program: p.Name, Counts: rowOf(r.Summary)}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-22s %-28s ", p.Suite, p.Name)
		printCounts(w, row.Counts)
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%d of %d programs show exceptions\n", len(rows), len(ps))
	return rows
}

// byNames resolves program names, skipping unknown ones.
func byNames(names []string) []progs.Program {
	var ps []progs.Program
	for _, name := range names {
		if p, err := progs.ByName(name); err == nil {
			ps = append(ps, p)
		}
	}
	return ps
}

// pairNeed declares two detector runs of each program: default options,
// and opt.
func pairNeed(ps []progs.Program, opt Options) need {
	var n need
	for _, p := range ps {
		n.runs = append(n.runs, keyed{p, keyOf(p, ToolFPX, Options{})}, keyed{p, keyOf(p, ToolFPX, opt)})
	}
	return n
}

// Table5Row compares full instrumentation against freq-redn-factor 64.
type Table5Row struct {
	Program    string
	Full, K64  Row8
	LostSevere int
}

var (
	table5Programs = []string{"myocyte", "Sw4lite (64)", "Laghos"}
	table5Opt      = Options{FreqRedn: 64}
	table6Programs = []string{"GRAMSCHM", "LU", "cfd", "myocyte", "S3D", "stencil", "wp", "rayTracing"}
	table6Opt      = Options{Compiler: cc.Options{FastMath: true}}
)

func table5Need() need { return pairNeed(byNames(table5Programs), table5Opt) }
func table6Need() need { return pairNeed(byNames(table6Programs), table6Opt) }

// Table5 reproduces the sampling-loss table for the severe programs the
// paper lists: full instrumentation (the sweep's runs) against
// freq-redn-factor 64.
func Table5(w io.Writer, s *Sweep) []Table5Row {
	pl := planOf(s)
	pl.fill(table5Need())
	var rows []Table5Row
	fmt.Fprintf(w, "Table 5: detection at freq-redn-factor 64 (%s)\n", countHeader)
	for _, p := range byNames(table5Programs) {
		full := mustOK(pl.result(p, keyOf(p, ToolFPX, Options{})))
		k64 := mustOK(pl.result(p, keyOf(p, ToolFPX, table5Opt)))
		row := Table5Row{Program: p.Name, Full: rowOf(full.Summary), K64: rowOf(k64.Summary)}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-16s full ", p.Name)
		printCounts(w, row.Full)
		fmt.Fprintf(w, "\n%-16s k=64 ", "")
		printCounts(w, row.K64)
		fmt.Fprintln(w)
	}
	return rows
}

// Table6Row compares default compilation against --use_fast_math.
type Table6Row struct {
	Program           string
	Precise, FastMath Row8
}

// Table6 reproduces the fast-math study over the programs whose exception
// profile the flag changes: default compilation (the sweep's runs) against
// --use_fast_math.
func Table6(w io.Writer, s *Sweep) []Table6Row {
	pl := planOf(s)
	pl.fill(table6Need())
	var rows []Table6Row
	fmt.Fprintf(w, "Table 6: --use_fast_math effect on exceptions (%s)\n", countHeader)
	for _, p := range byNames(table6Programs) {
		pre := mustOK(pl.result(p, keyOf(p, ToolFPX, Options{})))
		fast := mustOK(pl.result(p, keyOf(p, ToolFPX, table6Opt)))
		row := Table6Row{Program: p.Name, Precise: rowOf(pre.Summary), FastMath: rowOf(fast.Summary)}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-12s precise  ", p.Name)
		printCounts(w, row.Precise)
		fmt.Fprintf(w, "\n%-12s fastmath ", "")
		printCounts(w, row.FastMath)
		fmt.Fprintln(w)
	}
	return rows
}

// Table7Row is one diagnosis verdict with the analyzer evidence behind it.
type Table7Row struct {
	Program                     string
	Diagnosable, Matters, Fixed progs.TriState
	// Evidence gathered by the analyzer:
	FlowEvents     int
	OutputSevere   uint64
	Disappearances uint64
	FixedClean     bool
}

// table7Programs are the severe-exception programs Table 7 diagnoses.
func table7Programs() []progs.Program {
	var cand []progs.Program
	for _, p := range progs.All() {
		if p.Diag != nil {
			cand = append(cand, p)
		}
	}
	return cand
}

// table7Need declares Table 7's runs: the analyzer on the stock device, and
// the detector over each repaired variant.
func table7Need() need {
	var n need
	for _, p := range table7Programs() {
		n.runs = append(n.runs, keyed{p, analyzerKey(p, Options{}, nil)})
		if p.FixedRun != nil {
			n.runs = append(n.runs, keyed{p, keyOf(p, ToolFPX, Options{Fixed: true})})
		}
	}
	return n
}

// Table7 runs the analyzer over the severe-exception programs and prints
// the diagnosis overview with its supporting evidence, in corpus order. It
// reads the current evaluation's runs (see RunSweep) and measures any that
// are missing. A program whose analyzer run fails prints an error line
// instead of a row.
func Table7(w io.Writer) []Table7Row {
	pl := currentPlan()
	pl.fill(table7Need())
	var out []Table7Row
	fmt.Fprintln(w, "Table 7: diagnosis and repair overview (analyzer evidence in parentheses)")
	for _, p := range table7Programs() {
		an := pl.result(p, analyzerKey(p, Options{}, nil))
		if an.Err != nil {
			fmt.Fprintf(w, "%-18s error: %v\n", p.Name, an.Err)
			continue
		}
		row := Table7Row{
			Program:        p.Name,
			Diagnosable:    p.Diag.Diagnosable,
			Matters:        p.Diag.Matters,
			Fixed:          p.Diag.Fixed,
			FlowEvents:     an.Events,
			OutputSevere:   an.Flow.OutputSevere,
			Disappearances: an.Flow.Disappearances,
		}
		if p.FixedRun != nil {
			fr := mustOK(pl.result(p, keyOf(p, ToolFPX, Options{Fixed: true})))
			row.FixedClean = fr.Summary.Severe() == 0
		}
		out = append(out, row)
		fmt.Fprintf(w, "%-18s diagnose=%-4s matters=%-4s fixed=%-4s (events=%d, severe-to-output=%d, fixed-clean=%v)\n",
			row.Program, row.Diagnosable, row.Matters, row.Fixed, row.FlowEvents, row.OutputSevere, row.FixedClean)
	}
	return out
}

// MovielensResult is the §4.3 headline measurement.
type MovielensResult struct {
	PlainCycles, BinFPECycles, FullCycles, K256Cycles uint64
	BinFPEHung                                        bool
	RecordsFull, RecordsK256                          int
}

// movielensKeys are the §4.3 runs: plain, BinFPE, the full detector and
// k=256 sampling.
func movielensKeys(p progs.Program) [4]runKey {
	return [4]runKey{
		keyOf(p, ToolNone, Options{}),
		keyOf(p, ToolBinFPE, Options{}),
		keyOf(p, ToolFPX, Options{}),
		keyOf(p, ToolFPX, Options{FreqRedn: 256}),
	}
}

func movielensNeed() need {
	var n need
	for _, p := range byNames([]string{"CuMF-Movielens"}) {
		for _, k := range movielensKeys(p) {
			n.runs = append(n.runs, keyed{p, k})
		}
	}
	return n
}

// Movielens measures CuMF-Movielens under BinFPE, the full detector, and
// k=256 sampling — the paper's 6 h / 70 min / 5 min comparison — verifying
// that sampling loses no exceptions. All but k=256 are sweep runs.
func Movielens(w io.Writer, s *Sweep) MovielensResult {
	p, err := progs.ByName("CuMF-Movielens")
	if err != nil {
		return MovielensResult{}
	}
	pl := planOf(s)
	pl.fill(movielensNeed())
	var runs [4]RunResult
	for i, k := range movielensKeys(p) {
		runs[i] = mustOK(pl.result(p, k))
	}
	plain, bin, full, k256 := runs[0], runs[1], runs[2], runs[3]
	res := MovielensResult{
		PlainCycles:  plain.Cycles,
		BinFPECycles: bin.Cycles,
		FullCycles:   full.Cycles,
		K256Cycles:   k256.Cycles,
		BinFPEHung:   bin.Hung,
		RecordsFull:  full.Summary.Total(),
		RecordsK256:  k256.Summary.Total(),
	}
	fmt.Fprintf(w, "CuMF-Movielens (cycles): plain %d | BinFPE %d (%.0fx) | GPU-FPX %d (%.1fx) | k=256 %d (%.1fx)\n",
		plain.Cycles, bin.Cycles, bin.Slowdown(plain.Cycles),
		full.Cycles, full.Slowdown(plain.Cycles), k256.Cycles, k256.Slowdown(plain.Cycles))
	fmt.Fprintf(w, "records: full=%d k256=%d (sampling loses nothing)\n", res.RecordsFull, res.RecordsK256)
	return res
}
