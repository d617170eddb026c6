package bench

import (
	"fmt"
	"io"
	"math"
	"strings"

	"gpufpx/internal/progs"
)

// Figure4Buckets is the slowdown histogram of Figure 4: program counts per
// slowdown range for each tool, plus hangs.
type Figure4Buckets struct {
	// Edges are <2, <10, <100, <1000, ≥1000; Hung counts separately.
	Buckets [5]int
	Hung    int
}

func bucketize(xs []float64) Figure4Buckets {
	var b Figure4Buckets
	for _, x := range xs {
		switch {
		case math.IsInf(x, 1):
			b.Hung++
		case x < 2:
			b.Buckets[0]++
		case x < 10:
			b.Buckets[1]++
		case x < 100:
			b.Buckets[2]++
		case x < 1000:
			b.Buckets[3]++
		default:
			b.Buckets[4]++
		}
	}
	return b
}

var bucketNames = [5]string{"<2x", "2-10x", "10-100x", "100-1000x", ">=1000x"}

// Figure4 renders the slowdown-distribution histogram: BinFPE vs GPU-FPX
// without the global table vs the full GPU-FPX detector.
func Figure4(w io.Writer, s *Sweep) (binfpe, noGT, fpx Figure4Buckets) {
	binfpe = bucketize(s.Slowdowns(s.BinFPE))
	noGT = bucketize(s.Slowdowns(s.NoGT))
	fpx = bucketize(s.Slowdowns(s.FPX))
	fmt.Fprintln(w, "Figure 4: slowdown distribution over the corpus")
	fmt.Fprintf(w, "%-10s %10s %16s %10s\n", "bucket", "BinFPE", "GPU-FPX w/o GT", "GPU-FPX")
	for i, name := range bucketNames {
		fmt.Fprintf(w, "%-10s %10s %16s %10s\n", name,
			bar(binfpe.Buckets[i]), bar(noGT.Buckets[i]), bar(fpx.Buckets[i]))
	}
	fmt.Fprintf(w, "%-10s %10d %16d %10d\n", "hung", binfpe.Hung, noGT.Hung, fpx.Hung)
	return
}

func bar(n int) string {
	units := n / 6
	if units > 8 {
		units = 8
	}
	return fmt.Sprintf("%s %d", strings.Repeat("#", units+1), n)
}

// Figure5Point is one program's position in the log-log scatter.
type Figure5Point struct {
	Program          string
	FPXSlow, BinSlow float64
	Hung             bool
}

// Figure5 renders the per-program scatter of log2 slowdowns and the
// speedup annotations (programs two and three orders of magnitude faster
// under GPU-FPX; the outliers below the diagonal).
func Figure5(w io.Writer, s *Sweep) []Figure5Point {
	bin := s.Slowdowns(s.BinFPE)
	fpxS := s.Slowdowns(s.FPX)
	pts := make([]Figure5Point, len(bin))
	for i := range bin {
		pts[i] = Figure5Point{
			Program: s.Programs[i].Name,
			FPXSlow: fpxS[i],
			BinSlow: bin[i],
			Hung:    math.IsInf(bin[i], 1),
		}
	}
	// ASCII scatter: x = log2 GPU-FPX slowdown, y = log2 BinFPE slowdown.
	const width, height = 56, 18
	maxX, maxY := 1.0, 1.0
	for _, p := range pts {
		if p.Hung {
			continue
		}
		maxX = math.Max(maxX, math.Log2(p.FPXSlow))
		maxY = math.Max(maxY, math.Log2(p.BinSlow))
	}
	grid := make([][]byte, height)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(" ", width))
	}
	// Diagonal (equal slowdown).
	for x := 0; x < width; x++ {
		lx := float64(x) / float64(width-1) * maxX
		y := int(lx / maxY * float64(height-1))
		if y >= 0 && y < height {
			grid[height-1-y][x] = '.'
		}
	}
	for _, p := range pts {
		if p.Hung {
			continue
		}
		x := int(math.Log2(math.Max(p.FPXSlow, 1)) / maxX * float64(width-1))
		y := int(math.Log2(math.Max(p.BinSlow, 1)) / maxY * float64(height-1))
		if x >= 0 && x < width && y >= 0 && y < height {
			grid[height-1-y][x] = 'o'
		}
	}
	fmt.Fprintln(w, "Figure 5: log2 slowdown, GPU-FPX (x) vs BinFPE (y); dots above the diagonal favour GPU-FPX")
	for _, row := range grid {
		fmt.Fprintf(w, "|%s\n", string(row))
	}
	fmt.Fprintf(w, "+%s\n", strings.Repeat("-", width))
	a100, a1000, hung := s.SpeedupCounts()
	fmt.Fprintf(w, "programs with >=100x speedup: %d; >=1000x: %d; BinFPE hangs: %d\n", a100, a1000, hung)
	fmt.Fprintf(w, "geomean speedup: %.1fx; outliers below diagonal: %v\n", s.GeomeanSpeedup(), s.Outliers())
	return pts
}

// Figure6Point is one sampling-factor measurement.
type Figure6Point struct {
	K               int
	GeomeanSlowdown float64
	TotalExceptions int
}

// figure6Ks are Figure 6's sampling factors; 0 instruments every
// invocation.
var figure6Ks = []int{0, 4, 16, 64, 256}

// figure6Need declares Figure 6's detector runs: every program at every
// factor. The k=0 column is the sweep's GPU-FPX column; the plan clamps
// the sampled columns at each program's per-kernel launch bound, so a
// saturated (factor, program) pair runs once for all its factors.
func figure6Need(ps []progs.Program) need {
	var n need
	for _, k := range figure6Ks {
		for _, p := range ps {
			n.runs = append(n.runs, keyed{p, keyOf(p, ToolFPX, Options{FreqRedn: k})})
		}
	}
	return n
}

// Figure6 sweeps FREQ-REDN-FACTOR over the corpus: geometric-mean detector
// slowdown (the bars) and total unique exceptions detected (the line). The
// runs come from the sweep's plan; with a nil sweep the figure measures
// them itself, in the same two waves.
func Figure6(w io.Writer, s *Sweep, plain []RunResult) []Figure6Point {
	ps := progs.All()
	pl := planOf(s)
	pl.fill(figure6Need(ps))
	runs := make([][]RunResult, len(figure6Ks))
	for ki, k := range figure6Ks {
		runs[ki] = make([]RunResult, len(ps))
		for i, p := range ps {
			runs[ki][i] = pl.result(p, keyOf(p, ToolFPX, Options{FreqRedn: k}))
		}
	}
	return renderFigure6(w, ps, runs, plain)
}

// renderFigure6 prints Figure 6 from runs[k index][program index], in
// (k, program) order.
func renderFigure6(w io.Writer, ps []progs.Program, runs [][]RunResult, plain []RunResult) []Figure6Point {
	var out []Figure6Point
	fmt.Fprintln(w, "Figure 6: impact of FREQ-REDN-FACTOR on slowdown and detection")
	for ki, k := range figure6Ks {
		var slows []float64
		total := 0
		for i, p := range ps {
			r := mustOK(runs[ki][i])
			if !r.Hung {
				slows = append(slows, r.Slowdown(plain[i].Cycles))
			}
			if !p.Meaningless {
				total += r.Summary.Total()
			}
		}
		pt := Figure6Point{K: k, GeomeanSlowdown: Geomean(slows), TotalExceptions: total}
		out = append(out, pt)
		label := fmt.Sprintf("k=%d", k)
		if k == 0 {
			label = "full"
		}
		fmt.Fprintf(w, "%-6s geomean slowdown %.2fx  %s  exceptions %d\n",
			label, pt.GeomeanSlowdown, strings.Repeat("#", int(pt.GeomeanSlowdown*4)), pt.TotalExceptions)
	}
	return out
}

// Summary prints the headline numbers of the evaluation.
func Summary(w io.Writer, s *Sweep) {
	bin := s.Slowdowns(s.BinFPE)
	fpxS := s.Slowdowns(s.FPX)
	a100, a1000, hung := s.SpeedupCounts()
	fmt.Fprintf(w, "programs: %d\n", len(s.Programs))
	fmt.Fprintf(w, "GPU-FPX  slowdown: geomean %.2fx, %0.f%% of programs <10x\n", Geomean(fpxS), 100*Fraction(fpxS, 10))
	fmt.Fprintf(w, "BinFPE   slowdown: geomean %.2fx, %0.f%% of programs <10x, %d hangs\n", Geomean(bin), 100*Fraction(bin, 10), hung)
	fmt.Fprintf(w, "geomean speedup of GPU-FPX over BinFPE: %.1fx\n", s.GeomeanSpeedup())
	fmt.Fprintf(w, ">=100x on %d programs, >=1000x on %d programs\n", a100, a1000)
	fmt.Fprintf(w, "below-diagonal outliers: %v\n", s.Outliers())
}
