package bench

import (
	"io"
	"strings"
	"sync"
	"testing"

	"gpufpx/internal/cc"
	"gpufpx/internal/progs"
)

// The corpus sweep is the expensive part; share it across tests.
var (
	sweepOnce sync.Once
	sweep     *Sweep
)

func getSweep(t *testing.T) *Sweep {
	t.Helper()
	if testing.Short() {
		t.Skip("corpus sweep skipped in -short mode")
	}
	sweepOnce.Do(func() { sweep = RunSweep() })
	return sweep
}

func TestRunSingleProgram(t *testing.T) {
	p, err := progs.ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	plain := Run(p, ToolNone, Options{})
	if plain.Hung || plain.Cycles == 0 {
		t.Fatalf("plain run broken: %+v", plain)
	}
	det := Run(p, ToolFPX, Options{})
	if det.Cycles <= plain.Cycles {
		t.Error("instrumented run should cost more than plain")
	}
}

// TestSweepInvariants pins the sweep's exact simulated totals. Cycle counts
// are deterministic for any schedule and executor, so any drift is a
// behavioural change in the simulator or a tool, never noise.
func TestSweepInvariants(t *testing.T) {
	s := getSweep(t)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalCycles(); got != 6573844076 {
		t.Errorf("sweep total cycles = %d, want 6573844076", got)
	}
	if got := s.Hangs(); got != 2 {
		t.Errorf("sweep hangs = %d, want 2", got)
	}
}

func TestHeadlineGeomeanSpeedup(t *testing.T) {
	s := getSweep(t)
	// The paper reports a 16x geometric-mean speedup over BinFPE ("12x on
	// average" in §4.4). The reproduction must land in the same regime.
	got := s.GeomeanSpeedup()
	if got < 8 || got > 32 {
		t.Errorf("geomean speedup %.1fx outside the paper's regime (~16x)", got)
	}
}

func TestFigure4Shape(t *testing.T) {
	s := getSweep(t)
	fpxS := s.Slowdowns(s.FPX)
	bin := s.Slowdowns(s.BinFPE)
	// "over 60% of the programs experience a slowdown of less than 10x
	// [under GPU-FPX], compared to only 40% of the programs with BinFPE"
	if f := Fraction(fpxS, 10); f < 0.60 {
		t.Errorf("GPU-FPX <10x fraction = %.0f%%, want >= 60%%", 100*f)
	}
	if f := Fraction(bin, 10); f > 0.45 {
		t.Errorf("BinFPE <10x fraction = %.0f%%, want <= 45%%", 100*f)
	}
	// The GT table resolves the hangs of the w/o-GT phase.
	for i := range s.NoGT {
		if s.NoGT[i].Hung && !s.FPX[i].Hung {
			continue // expected direction
		}
		if s.FPX[i].Hung {
			t.Errorf("GPU-FPX with GT hung on %s", s.Programs[i].Name)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	s := getSweep(t)
	a100, a1000, hung := s.SpeedupCounts()
	// Paper: 49 programs two orders of magnitude faster, four programs
	// three orders. The shape must hold: dozens at >=100x, a few at
	// >=1000x.
	if a100 < 30 {
		t.Errorf(">=100x speedup on %d programs, want >= 30 (paper: 49)", a100)
	}
	if a1000 < 2 || a1000 > 8 {
		t.Errorf(">=1000x speedup on %d programs, want a few (paper: 4)", a1000)
	}
	if hung < 1 {
		t.Error("expected BinFPE to hang on at least one program")
	}
	// The paper's three outliers: nearly-FP-free programs where the GT
	// allocation is pure overhead.
	out := s.Outliers()
	want := map[string]bool{
		"simpleAWBarrier":               true,
		"reductionMultiBlockCG":         true,
		"conjugateGradientMultiBlockCG": true,
	}
	if len(out) != len(want) {
		t.Errorf("outliers = %v, want exactly the three CG/barrier samples", out)
	}
	for _, name := range out {
		if !want[name] {
			t.Errorf("unexpected outlier %s", name)
		}
	}
}

func TestHangsMatchProgramMetadata(t *testing.T) {
	s := getSweep(t)
	for i, p := range s.Programs {
		if p.HangsBinFPE && !s.BinFPE[i].Hung {
			t.Errorf("%s marked HangsBinFPE but finished", p.Name)
		}
		if !p.HangsBinFPE && s.BinFPE[i].Hung {
			t.Errorf("%s hung under BinFPE unexpectedly", p.Name)
		}
		if s.FPX[i].Hung {
			t.Errorf("%s hung under GPU-FPX", p.Name)
		}
		if s.Plain[i].Hung {
			t.Errorf("%s hung uninstrumented", p.Name)
		}
	}
}

func TestDetectorMatchesToolAgnosticCounts(t *testing.T) {
	s := getSweep(t)
	// The sweep's detector results must agree with Table 4 for a spot set.
	want := map[string]int{"myocyte": 301, "GRAMSCHM": 9, "HPCG": 2}
	for i, p := range s.Programs {
		if n, ok := want[p.Name]; ok {
			if got := s.FPX[i].Summary.Total(); got != n {
				t.Errorf("%s: sweep detector found %d records, want %d", p.Name, got, n)
			}
		}
	}
}

func TestMovielensHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	res := Movielens(io.Discard, nil)
	if res.BinFPEHung {
		t.Fatal("BinFPE must finish CuMF-Movielens (it took 6 hours, not forever)")
	}
	// Ordering and magnitude: BinFPE >> full >> k=256, and sampling keeps
	// every exception record.
	if !(res.BinFPECycles > res.FullCycles && res.FullCycles > res.K256Cycles) {
		t.Fatalf("ordering wrong: bin=%d full=%d k256=%d", res.BinFPECycles, res.FullCycles, res.K256Cycles)
	}
	if r := float64(res.FullCycles) / float64(res.K256Cycles); r < 8 || r > 40 {
		t.Errorf("full/k256 = %.1f, want ~14 (paper: 70min -> 5min)", r)
	}
	if r := float64(res.BinFPECycles) / float64(res.FullCycles); r < 3 {
		t.Errorf("BinFPE/full = %.1f, want >> 1 (paper: 6h vs 70min)", r)
	}
	if res.RecordsFull != res.RecordsK256 {
		t.Errorf("sampling lost records: %d vs %d", res.RecordsFull, res.RecordsK256)
	}
}

func TestTable4Render(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	var sb strings.Builder
	rows := Table4(&sb, getSweep(t))
	if len(rows) != 26 {
		t.Errorf("Table 4 has %d rows, want 26", len(rows))
	}
	if !strings.Contains(sb.String(), "myocyte") || !strings.Contains(sb.String(), "HPCG") {
		t.Error("rendered table missing expected programs")
	}
}

func TestTable5Render(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	rows := Table5(io.Discard, nil)
	if len(rows) != 3 {
		t.Fatalf("Table 5 rows = %d", len(rows))
	}
	for _, r := range rows {
		full, k64 := 0, 0
		for i := range r.Full {
			full += r.Full[i]
			k64 += r.K64[i]
		}
		if k64 >= full {
			t.Errorf("%s: sampling should lose records (%d vs %d)", r.Program, k64, full)
		}
		if k64 == 0 {
			t.Errorf("%s: sampling must keep the program diagnosable", r.Program)
		}
	}
}

func TestTable6Render(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	rows := Table6(io.Discard, nil)
	if len(rows) != 8 {
		t.Fatalf("Table 6 rows = %d", len(rows))
	}
	for _, r := range rows {
		// Subnormals vanish under fast math for every listed program.
		if r.FastMath[6] != 0 {
			t.Errorf("%s: FP32 SUBs remain under fast math: %d", r.Program, r.FastMath[6])
		}
	}
	// myocyte gains division-by-zero exceptions (§4.4).
	for _, r := range rows {
		if r.Program == "myocyte" {
			if r.Precise[7] != 0 || r.FastMath[7] != 6 {
				t.Errorf("myocyte DIV0 transition wrong: %d -> %d", r.Precise[7], r.FastMath[7])
			}
		}
	}
}

func TestTable7Render(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	rows := Table7(io.Discard)
	if len(rows) != 11 {
		t.Fatalf("Table 7 rows = %d, want 11", len(rows))
	}
	for _, r := range rows {
		if r.Fixed == progs.Yes && !r.FixedClean {
			t.Errorf("%s: repair did not eliminate severe exceptions", r.Program)
		}
		if r.Matters == progs.Yes && r.OutputSevere == 0 {
			t.Errorf("%s: exceptions should reach the output", r.Program)
		}
		if r.Matters == progs.No && r.OutputSevere != 0 {
			t.Errorf("%s: exceptions should be screened from the output", r.Program)
		}
	}
}

func TestFigure4Render(t *testing.T) {
	s := getSweep(t)
	var sb strings.Builder
	binfpe, noGT, fpxB := Figure4(&sb, s)
	total := func(b Figure4Buckets) int {
		n := b.Hung
		for _, c := range b.Buckets {
			n += c
		}
		return n
	}
	if total(binfpe) != len(s.Programs) || total(noGT) != len(s.Programs) || total(fpxB) != len(s.Programs) {
		t.Error("histogram buckets do not cover all programs")
	}
	if !strings.Contains(sb.String(), "Figure 4") {
		t.Error("render missing title")
	}
}

func TestFigure5Render(t *testing.T) {
	s := getSweep(t)
	var sb strings.Builder
	pts := Figure5(&sb, s)
	if len(pts) != len(s.Programs) {
		t.Error("scatter points missing")
	}
	if !strings.Contains(sb.String(), "geomean speedup") {
		t.Error("render missing annotations")
	}
}

func TestFigure6Render(t *testing.T) {
	s := getSweep(t)
	pts := Figure6(io.Discard, s, s.Plain)
	if len(pts) != 5 {
		t.Fatalf("Figure 6 points = %d", len(pts))
	}
	// Slowdown decreases monotonically with k; exceptions never increase.
	for i := 1; i < len(pts); i++ {
		if pts[i].GeomeanSlowdown > pts[i-1].GeomeanSlowdown+1e-9 {
			t.Errorf("slowdown rose from k=%d to k=%d: %.3f -> %.3f",
				pts[i-1].K, pts[i].K, pts[i-1].GeomeanSlowdown, pts[i].GeomeanSlowdown)
		}
		if pts[i].TotalExceptions > pts[i-1].TotalExceptions {
			t.Errorf("exceptions rose from k=%d to k=%d", pts[i-1].K, pts[i].K)
		}
	}
	// Full instrumentation sees strictly more than k=256, but sampling
	// keeps the corpus diagnosable.
	if pts[4].TotalExceptions >= pts[0].TotalExceptions {
		t.Error("sampling should lose some records")
	}
	if pts[4].TotalExceptions < pts[0].TotalExceptions/2 {
		t.Error("sampling lost too much")
	}
}

func TestTwoPhaseWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	// SRU has two kernels, both exceptional; HPCG has one exceptional
	// kernel among two — the screened analyzer must skip the clean one.
	p, err := progs.ByName("HPCG")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTwoPhase(p, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FlaggedKernels) != 1 {
		t.Fatalf("flagged kernels = %v, want exactly the spmv kernel", res.FlaggedKernels)
	}
	if res.AnalyzerCycles >= res.FullAnalyzerCycles {
		t.Errorf("screened analyzer (%d cycles) should be cheaper than analyzing everything (%d)",
			res.AnalyzerCycles, res.FullAnalyzerCycles)
	}
	if res.Events == 0 {
		t.Error("screened analyzer found no events")
	}
	// Clean programs produce no flags and skip phase 2 entirely.
	clean, err := progs.ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	cres, err := RunTwoPhase(clean, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.FlaggedKernels) != 0 || cres.AnalyzerCycles != 0 {
		t.Errorf("clean program should skip the analyzer phase: %+v", cres)
	}
}
