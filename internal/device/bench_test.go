package device

import (
	"testing"

	"gpufpx/internal/sass"
)

// Executor hot-path microbenchmarks. Each kernel runs under both dispatch
// modes so `go test -bench . internal/device` prints the interp/lowered
// ratio directly, and -benchmem makes allocation regressions on the hot
// path fail loudly in CI.

// ffmaDense is the arithmetic-bound worst case for dispatch overhead: a
// tight loop of dependent FFMAs where every executor cycle is spent in the
// inner lane loop.
var ffmaDense = sass.MustParse("bench_ffma_dense", `
MOV32I R1, 0x0 ;
MOV32I R2, 0x3f800000 ;
MOV32I R3, 0x3f000000 ;
MOV32I R4, 0x3e800000 ;
L_top:
FFMA R5, R2, R3, R4 ;
FFMA R6, R5, R3, R2 ;
FFMA R7, R6, R3, R5 ;
FFMA R4, R7, R3, R6 ;
IADD R1, R1, 0x1 ;
ISETP.LT.AND P0, PT, R1, 0x100, PT ;
@P0 BRA L_top ;
EXIT ;
`)

// predicated splits the warp into two half-populated exec masks per
// iteration, exercising the sparse-mask path of every lowered thunk.
var predicated = sass.MustParse("bench_predicated", `
S2R R0, SR_LANEID ;
MOV32I R1, 0x0 ;
MOV32I R3, 0x3f800000 ;
MOV32I R4, 0x3f000000 ;
LOP.AND R2, R0, 0x1 ;
ISETP.EQ.AND P0, PT, R2, 0x0, PT ;
L_top:
@P0 FADD R3, R3, R4 ;
@!P0 FMUL R4, R4, R3 ;
IADD R1, R1, 0x1 ;
ISETP.LT.AND P1, PT, R1, 0x100, PT ;
@P1 BRA L_top ;
EXIT ;
`)

// fmulLoop is the libor-shaped multiply chain: a loop of dependent FMULs
// whose operands come from the constant bank. With c[0x160] = c[0x164] =
// 1e-20 every product is a subnormal (1e-40), the case where a host float32
// multiply takes a microcode assist; with 1.0 every product is normal.
var fmulLoop = sass.MustParse("bench_fmul_loop", `
MOV32I R1, 0x0 ;
MOV R2, c[0x0][0x160] ;
MOV R3, c[0x0][0x164] ;
MOV32I R4, 0x3f800000 ;
L_top:
FMUL R5, R2, R3 ;
FMUL R6, R5, R4 ;
FMUL R7, R6, R4 ;
FMUL R8, R7, R4 ;
IADD R1, R1, 0x1 ;
ISETP.LT.AND P0, PT, R1, 0x100, PT ;
@P0 BRA L_top ;
EXIT ;
`)

// benchFMUL launches fmulLoop with operand bits x under each tier.
func benchFMUL(b *testing.B, x uint32) {
	for _, mode := range []tier{tierFused, tierLowered, tierInterp} {
		b.Run(mode.String(), func(b *testing.B) {
			d := New(DefaultConfig())
			l := &Launch{Kernel: fmulLoop, GridDim: 4, BlockDim: 64, Params: []uint32{x, x}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.launch(l, mode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFMULSubnormal and BenchmarkFMULNormal run the same loop with
// subnormal and normal products; their ratio is the host cost of
// exception-dense FP32 code, ~1 when the multiply is assist-free.
func BenchmarkFMULSubnormal(b *testing.B) { benchFMUL(b, 0x1e3ce508) }
func BenchmarkFMULNormal(b *testing.B)    { benchFMUL(b, 0x3f800000) }

// benchLaunch runs one kernel repeatedly on a reused device under the given
// executor, optionally with an injected per-FFMA call (the instrumented
// case).
func benchLaunch(b *testing.B, k *sass.Kernel, mode tier, inject bool) {
	b.Helper()
	d := New(DefaultConfig())
	l := &Launch{Kernel: k, GridDim: 4, BlockDim: 64}
	if inject {
		inj := make(map[int][]InjectedCall)
		for i := range k.Instrs {
			in := &k.Instrs[i]
			if dst, ok := in.DestReg(); ok && dst != sass.RZ && in.Op.IsFP32Compute() {
				inj[in.PC] = append(inj[in.PC], InjectedCall{
					When: After,
					Cost: 8,
					Fn: func(ctx *InjCtx) error {
						// A detector-shaped body: touch the exec mask and one
						// destination register per lane, push nothing.
						for lane := 0; lane < WarpSize; lane++ {
							if ctx.LaneActive(lane) {
								_ = ctx.Reg32(lane, 5)
							}
						}
						return nil
					},
				})
			}
		}
		l.InjectTab = BuildInjectTable(len(k.Instrs), inj)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.launch(l, mode); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFMADense(b *testing.B) {
	b.Run("fused", func(b *testing.B) { benchLaunch(b, ffmaDense, tierFused, false) })
	b.Run("lowered", func(b *testing.B) { benchLaunch(b, ffmaDense, tierLowered, false) })
	b.Run("interp", func(b *testing.B) { benchLaunch(b, ffmaDense, tierInterp, false) })
}

func BenchmarkPredicated(b *testing.B) {
	b.Run("fused", func(b *testing.B) { benchLaunch(b, predicated, tierFused, false) })
	b.Run("lowered", func(b *testing.B) { benchLaunch(b, predicated, tierLowered, false) })
	b.Run("interp", func(b *testing.B) { benchLaunch(b, predicated, tierInterp, false) })
}

func BenchmarkInstrumented(b *testing.B) {
	b.Run("bare", func(b *testing.B) { benchLaunch(b, ffmaDense, tierLowered, false) })
	b.Run("instrumented", func(b *testing.B) { benchLaunch(b, ffmaDense, tierLowered, true) })
	b.Run("instrumented-fused", func(b *testing.B) { benchLaunch(b, ffmaDense, tierFused, true) })
}

// TestBenchKernelsAgreeAcrossExecutors anchors the benchmark kernels to the
// differential contract: same cycles and same instruction counts under all
// three dispatch modes.
func TestBenchKernelsAgreeAcrossExecutors(t *testing.T) {
	for _, k := range []*sass.Kernel{ffmaDense, predicated} {
		di := New(DefaultConfig())
		si, err := di.launch(&Launch{Kernel: k, GridDim: 4, BlockDim: 64}, tierInterp)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []tier{tierLowered, tierFused} {
			dl := New(DefaultConfig())
			sl, err := dl.launch(&Launch{Kernel: k, GridDim: 4, BlockDim: 64}, mode)
			if err != nil {
				t.Fatal(err)
			}
			if si.Cycles != sl.Cycles || si.Instructions != sl.Instructions {
				t.Errorf("%s: interp %d cycles/%d instrs, %s %d cycles/%d instrs",
					k.Name, si.Cycles, si.Instructions, mode, sl.Cycles, sl.Instructions)
			}
		}
	}
}

// TestFusedStepNoAllocs is the no-exception hot-path allocation proof: once
// the fused program and its launch scratch exist, stepping a warp through
// fused regions — chains, thunk segments and the fused branch tail —
// performs zero heap allocations.
func TestFusedStepNoAllocs(t *testing.T) {
	for _, k := range []*sass.Kernel{ffmaDense, predicated} {
		d := New(DefaultConfig())
		l := &Launch{Kernel: k, GridDim: 1, BlockDim: 32}
		// Build the program the way a real launch does.
		if _, err := d.Launch(l); err != nil {
			t.Fatal(err)
		}
		prog := programFor(k)
		if prog.fk == nil {
			t.Fatalf("%s: no fused program", k.Name)
		}
		ex := &executor{
			d:      d,
			l:      l,
			budget: 64 << 20,
			meta:   prog.meta,
			low:    prog.low,
			fk:     prog.fk,
		}
		if ex.fk.maxUni > 0 {
			ex.uniBuf = make([]uint32, ex.fk.maxUni)
		}
		w := newWarp(0, 0, 0, k.NumRegs, 32)
		run := func() {
			w.reset(0, 0, 0)
			ex.issued = 0
			for !w.done() {
				if err := ex.step(w); err != nil {
					t.Fatal(err)
				}
			}
		}
		run() // warm-up: grows the divergence stack to steady state
		if avg := testing.AllocsPerRun(50, run); avg != 0 {
			t.Errorf("%s: fused step path allocates %.1f allocs/run, want 0", k.Name, avg)
		}
	}
}
