package fpx

import (
	"math"
	"testing"

	"gpufpx/internal/device"
	"gpufpx/internal/sass"
)

// The analyzer lowering contract: once a kernel's sites are compiled, the
// injected before/after bodies allocate nothing on the no-exception path.
// These tests drive the injected closures directly through a standalone tool
// context, the way the executor invokes them, with every lane holding a
// normal value.

const benchRegs = 16

// toolSite instruments a one-instruction kernel with the given tool and
// returns the injected calls at PC 0 plus a full-warp context sized for it.
func toolSite(t testing.TB, tool interface {
	Instrument(*sass.Kernel) map[int][]device.InjectedCall
}, in sass.Instr) ([]device.InjectedCall, *device.InjCtx) {
	t.Helper()
	// The trailing FADD keeps the kernel FP-bearing so the analyzer's
	// global-store output check engages even for an STG site under test.
	k := &sass.Kernel{Name: "bench_kernel", Instrs: []sass.Instr{
		in,
		sass.NewInstr(sass.OpFADD, sass.Reg(14), sass.Reg(1), sass.Reg(2)),
		sass.NewInstr(sass.OpEXIT),
	}}
	if err := k.Finalize(nil); err != nil {
		t.Fatal(err)
	}
	inj := tool.Instrument(k)
	calls := inj[0]
	if len(calls) == 0 {
		t.Fatal("no injected calls at PC 0")
	}
	ctx := device.NewToolCtx(benchRegs)
	one := math.Float32bits(1.5)
	for lane := 0; lane < device.WarpSize; lane++ {
		for r := 0; r < benchRegs; r++ {
			ctx.Warp.SetReg(lane, r, one+uint32(r))
		}
	}
	return calls, ctx
}

func runCalls(t testing.TB, calls []device.InjectedCall, ctx *device.InjCtx) {
	for _, c := range calls {
		if c.Fn == nil {
			continue
		}
		if err := c.Fn(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAnalyzerNoExceptionPathAllocs pins the tentpole's zero-allocation
// guarantee across the three site shapes: a plain compute site (FFMA), a
// shared dest/source site (full before capture), and a destination-less
// comparison site (nil before body).
func TestAnalyzerNoExceptionPathAllocs(t *testing.T) {
	shapes := []struct {
		name string
		in   sass.Instr
	}{
		{"ffma", sass.NewInstr(sass.OpFFMA, sass.Reg(4), sass.Reg(1), sass.Reg(2), sass.Reg(3))},
		{"shared", sass.NewInstr(sass.OpFADD, sass.Reg(6), sass.Reg(1), sass.Reg(6))},
		{"fsetp", sass.NewInstr(sass.OpFSETP, sass.PredOp(0, false), sass.PredOp(7, false), sass.Reg(1), sass.Reg(2), sass.PredOp(7, false))},
		{"store", sass.NewInstr(sass.OpSTG, sass.Mem(2, 0), sass.Reg(5)).WithMods("E")},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			a := NewAnalyzer(DefaultAnalyzerConfig())
			calls, ctx := toolSite(t, a, sh.in)
			runCalls(t, calls, ctx) // warm up (scratch growth, lazily-built state)
			if n := testing.AllocsPerRun(100, func() { runCalls(t, calls, ctx) }); n != 0 {
				t.Errorf("%s: analyzer no-exception path allocates %v per run, want 0", sh.name, n)
			}
			if got := len(a.Events()); got != 0 {
				t.Fatalf("%s: normal values produced %d events", sh.name, got)
			}
		})
	}
}

// shadowFFMASite instruments FFMA R4, R1, R2, R3 with the shadow sanitizer
// and sets R4 = R1*R2 + R3 exactly in every lane. The standalone context
// executes nothing, so the destination must already hold the real result
// for the paired FP64 execution to agree with it: the site then stays on
// its no-finding path.
func shadowFFMASite(t testing.TB) (*Shadow, []device.InjectedCall, *device.InjCtx) {
	sh := NewShadow(DefaultShadowConfig())
	calls, ctx := toolSite(t, sh, sass.NewInstr(sass.OpFFMA, sass.Reg(4), sass.Reg(1), sass.Reg(2), sass.Reg(3)))
	for lane := 0; lane < device.WarpSize; lane++ {
		for r, v := range map[int]float32{1: 1.5, 2: 2, 3: 0.25, 4: 3.25} {
			ctx.Warp.SetReg(lane, r, math.Float32bits(v))
		}
	}
	return sh, calls, ctx
}

// TestShadowNoExceptionPathAllocs pins the same guarantee for the shadow
// sanitizer's source capture and paired FP64 execution, once the warp's
// shadow register file exists.
func TestShadowNoExceptionPathAllocs(t *testing.T) {
	sh, calls, ctx := shadowFFMASite(t)
	runCalls(t, calls, ctx)
	if n := testing.AllocsPerRun(100, func() { runCalls(t, calls, ctx) }); n != 0 {
		t.Errorf("shadow no-exception path allocates %v per run, want 0", n)
	}
	st := sh.Stats()
	if st.ShadowedOps == 0 {
		t.Fatal("the shadow site never ran")
	}
	if n := len(sh.Findings()); n != 0 || st.SignificanceLosses+st.Cancellations+st.Divergences != 0 {
		t.Fatalf("exact operands produced %d findings (%+v)", n, st)
	}
}

// TestDetectorNoExceptionPathAllocs pins the same guarantee for the
// detector's slimmed check body.
func TestDetectorNoExceptionPathAllocs(t *testing.T) {
	d := NewDetector(DefaultDetectorConfig())
	calls, ctx := toolSite(t, d, sass.NewInstr(sass.OpDADD, sass.Reg(4), sass.Reg(0), sass.Reg(2)))
	runCalls(t, calls, ctx)
	if n := testing.AllocsPerRun(100, func() { runCalls(t, calls, ctx) }); n != 0 {
		t.Errorf("detector no-exception path allocates %v per run, want 0", n)
	}
	if got := d.Stats().DynamicExceptions; got != 0 {
		t.Fatalf("normal values produced %d dynamic exceptions", got)
	}
}

func benchCalls(b *testing.B, tool interface {
	Instrument(*sass.Kernel) map[int][]device.InjectedCall
}, in sass.Instr) {
	calls, ctx := toolSite(b, tool, in)
	runCalls(b, calls, ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCalls(b, calls, ctx)
	}
}

// BenchmarkAnalyzerSiteFFMA measures the lowered before+after pair on a
// 4-operand FP32 compute site with no exceptional lanes.
func BenchmarkAnalyzerSiteFFMA(b *testing.B) {
	benchCalls(b, NewAnalyzer(DefaultAnalyzerConfig()),
		sass.NewInstr(sass.OpFFMA, sass.Reg(4), sass.Reg(1), sass.Reg(2), sass.Reg(3)))
}

// BenchmarkAnalyzerSiteSharedDADD measures a shared dest/source FP64 site:
// full before capture plus the pair-read classification.
func BenchmarkAnalyzerSiteSharedDADD(b *testing.B) {
	benchCalls(b, NewAnalyzer(DefaultAnalyzerConfig()),
		sass.NewInstr(sass.OpDADD, sass.Reg(4), sass.Reg(4), sass.Reg(2)))
}

// BenchmarkAnalyzerSiteFSETP measures a destination-less comparison site —
// the nil-before fast path.
func BenchmarkAnalyzerSiteFSETP(b *testing.B) {
	benchCalls(b, NewAnalyzer(DefaultAnalyzerConfig()),
		sass.NewInstr(sass.OpFSETP, sass.PredOp(0, false), sass.PredOp(7, false), sass.Reg(1), sass.Reg(2), sass.PredOp(7, false)))
}

// BenchmarkAnalyzerStoreCheck measures the global-store output check.
func BenchmarkAnalyzerStoreCheck(b *testing.B) {
	benchCalls(b, NewAnalyzer(DefaultAnalyzerConfig()),
		sass.NewInstr(sass.OpSTG, sass.Mem(2, 0), sass.Reg(5)).WithMods("E"))
}

// BenchmarkShadowSiteFFMA measures the shadow sanitizer's source capture
// and paired FP64 execution on a 3-source FP32 site with no findings.
func BenchmarkShadowSiteFFMA(b *testing.B) {
	_, calls, ctx := shadowFFMASite(b)
	runCalls(b, calls, ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCalls(b, calls, ctx)
	}
}

// BenchmarkDetectorCheckFADD measures the detector's lowered FP32
// destination check with no exceptional lanes.
func BenchmarkDetectorCheckFADD(b *testing.B) {
	benchCalls(b, NewDetector(DefaultDetectorConfig()),
		sass.NewInstr(sass.OpFADD, sass.Reg(4), sass.Reg(1), sass.Reg(2)))
}
