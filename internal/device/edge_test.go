package device

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"gpufpx/internal/sass"
)

// ---- failure injection ----

func TestOutOfBoundsLoadPanics(t *testing.T) {
	d := New(DefaultConfig())
	k := sass.MustParse("oob", `
MOV32I R0, 0x7fffff00 ;
LDG.E R1, [R0] ;
EXIT ;
`)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected out-of-bounds panic")
		}
		rf, ok := r.(*RuntimeFault)
		if !ok {
			t.Fatalf("expected *RuntimeFault panic, got %T: %v", r, r)
		}
		if rf.Kind != FaultOOB || !strings.Contains(rf.Error(), "out of bounds") {
			t.Fatalf("unexpected fault %v %q", rf.Kind, rf.Error())
		}
	}()
	_, _ = d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 1})
}

func TestUnknownBranchTargetActsAsExit(t *testing.T) {
	// A branch past the end retires the warp rather than hanging.
	d := New(DefaultConfig())
	k := &sass.Kernel{Name: "off", Instrs: []sass.Instr{
		sass.NewInstr(sass.OpBRA, sass.ImmI(99)),
		sass.NewInstr(sass.OpEXIT),
	}}
	if err := k.Finalize(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32}); err != nil {
		t.Fatal(err)
	}
}

func TestRunawayKernelHitsBudget(t *testing.T) {
	d := New(DefaultConfig())
	k := sass.MustParse("spin", `
L_top:
BRA L_top ;
`)
	_, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32, MaxDynInstr: 10_000})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("expected budget error, got %v", err)
	}
}

func TestBadLaunchDims(t *testing.T) {
	d := New(DefaultConfig())
	k := sass.MustParse("t", "EXIT ;")
	for _, dims := range [][2]int{{0, 32}, {1, 0}, {1, 2048}, {-1, 32}} {
		if _, err := d.Launch(&Launch{Kernel: k, GridDim: dims[0], BlockDim: dims[1]}); err == nil {
			t.Errorf("dims %v should fail", dims)
		}
	}
}

func TestInjectedErrorAbortsLaunch(t *testing.T) {
	d := New(DefaultConfig())
	k := sass.MustParse("e", `
FADD R1, R1, R1 ;
FADD R2, R2, R2 ;
EXIT ;
`)
	boom := errSentinel("boom")
	inject := map[int][]InjectedCall{
		0: {{When: After, Fn: func(*InjCtx) error { return boom }}},
	}
	_, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32, InjectTab: BuildInjectTable(len(k.Instrs), inject)})
	if err != boom {
		t.Fatalf("got %v, want sentinel", err)
	}
}

// abortRegion is one fused region of eleven @PT instructions (PCs 0–10)
// with two stores in its body.
var abortRegion = sass.MustParse("abort_region", `
S2R R0, SR_TID.X ;
MOV R8, c[0x0][0x160] ;
SHL R9, R0, 0x2 ;
IADD R8, R8, R9 ;
I2F R1, R0 ;
FMUL R3, R1, R1 ;
STG.E [R8], R3 ;
FADD R4, R3, R1 ;
FFMA R5, R4, R3, R1 ;
STG.E [R8+0x100], R5 ;
FMUL R7, R5, R4 ;
EXIT ;
`)

// abortRun is what one launch of abortRegion leaves observable.
type abortRun struct {
	err    string
	cycles uint64
	stats  [3]uint64 // Instructions, LaneOps, FPInstructions
	mem    [128]uint32
	// regs holds a snapshot of every lane's registers per injected call,
	// in call order.
	regs [][]uint32
}

// TestInjectedAbortAccountingTiersAgree aborts a launch inside an
// instrumented fused region — once by an After call that returns an error
// on the second warp, once by the instruction budget running out there —
// and requires every tier to stop at the same instruction: the same
// error, cycles, statistics, stores and register bits at each call.
func TestInjectedAbortAccountingTiersAgree(t *testing.T) {
	k := abortRegion
	if r := programFor(k).fk.regions; len(r) != 1 || r[0].start != 0 || r[0].end != 11 {
		t.Fatal("abort_region is not one fused region over PCs 0-10")
	}
	boom := errSentinel("boom")
	// One warp runs 12 instructions; the budget lets the second warp
	// issue PCs 0-6, so it stops after the After call at PC 6.
	const budget = 12 + 7
	for _, tc := range []struct {
		name   string
		errAt  int // the After call fails on this invocation (0: never)
		budget uint64
		want   error
	}{
		{"call-error", 2, 0, boom},
		{"budget", 0, budget, ErrBudget},
	} {
		var ref *abortRun
		for _, mode := range allTiers {
			d := New(DefaultConfig())
			out := d.Alloc(4 * 128)
			got := &abortRun{}
			snap := func(ctx *InjCtx) {
				var r []uint32
				for l := 0; l < WarpSize; l++ {
					for reg := 0; reg < k.NumRegs; reg++ {
						r = append(r, ctx.Warp.Reg(l, reg))
					}
				}
				got.regs = append(got.regs, r)
			}
			calls := 0
			tab := NewInjectTable(len(k.Instrs))
			tab.Add(6, InjectedCall{When: After, Cost: 5, Fn: func(ctx *InjCtx) error {
				snap(ctx)
				if calls++; calls == tc.errAt {
					return boom
				}
				return nil
			}})
			tab.Add(8, InjectedCall{When: Before, Cost: 7, Fn: func(ctx *InjCtx) error {
				snap(ctx)
				return nil
			}})
			_, err := d.launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 48, Params: []uint32{out},
				InjectTab: tab, MaxDynInstr: tc.budget}, mode)
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s/%s: got %v, want %v", tc.name, mode, err, tc.want)
			}
			got.err = err.Error()
			got.cycles = d.Cycles
			got.stats = [3]uint64{d.Stats.Instructions, d.Stats.LaneOps, d.Stats.FPInstructions}
			for i := range got.mem {
				got.mem[i] = d.Load32(out + uint32(4*i))
			}
			if ref == nil {
				ref = got
				continue
			}
			if got.err != ref.err || got.cycles != ref.cycles || got.stats != ref.stats {
				t.Errorf("%s/%s: error %q, cycles %d, stats %v; interp: %q, %d, %v",
					tc.name, mode, got.err, got.cycles, got.stats, ref.err, ref.cycles, ref.stats)
			}
			if got.mem != ref.mem {
				t.Errorf("%s/%s: stores differ from interp", tc.name, mode)
			}
			if !reflect.DeepEqual(got.regs, ref.regs) {
				t.Errorf("%s/%s: register snapshots at the calls differ from interp", tc.name, mode)
			}
		}
		// Warp 0 runs both calls; warp 1 stops after its PC 6 call.
		if len(ref.regs) != 3 {
			t.Errorf("%s: %d calls ran, want 3", tc.name, len(ref.regs))
		}
	}
}

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

// ---- edge semantics ----

func TestNestedDivergence(t *testing.T) {
	// Quarters of the warp take four different paths.
	d := New(DefaultConfig())
	out := d.Alloc(4 * 32)
	src := `
S2R R0, SR_LANEID ;
MOV R1, c[0x0][0x160] ;
SHL R2, R0, 0x2 ;
IADD R1, R1, R2 ;
SHR R3, R0, 0x3 ;             // quarter index 0..3
ISETP.LT.AND P0, PT, R3, 0x2, PT ;
@P0 BRA L_low ;
ISETP.EQ.AND P1, PT, R3, 0x2, PT ;
@P1 BRA L_two ;
MOV32I R4, 0x40400000 ;       // 3.0
STG.E [R1], R4 ;
EXIT ;
L_two:
MOV32I R4, 0x40000000 ;       // 2.0
STG.E [R1], R4 ;
EXIT ;
L_low:
ISETP.EQ.AND P2, PT, R3, 0x0, PT ;
@P2 BRA L_zero ;
MOV32I R4, 0x3f800000 ;       // 1.0
STG.E [R1], R4 ;
EXIT ;
L_zero:
MOV32I R4, 0x0 ;              // 0.0
STG.E [R1], R4 ;
EXIT ;
`
	k := sass.MustParse("nest", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 32; lane++ {
		want := float32(lane / 8)
		got := math.Float32frombits(d.Load32(out + uint32(4*lane)))
		if got != want {
			t.Fatalf("lane %d: %v, want %v", lane, got, want)
		}
	}
}

func TestDivergentLoopTripCounts(t *testing.T) {
	// Each lane loops laneid+1 times; sum must be exact per lane.
	d := New(DefaultConfig())
	out := d.Alloc(4 * 32)
	src := `
S2R R0, SR_LANEID ;
IADD R4, R0, 0x1 ;            // trips
MOV32I R1, 0x0 ;              // i
MOV32I R2, 0x0 ;              // sum bits
L_top:
I2F R3, R1 ;
FADD R2, R2, R3 ;
IADD R1, R1, 0x1 ;
ISETP.LT.AND P0, PT, R1, R4, PT ;
@P0 BRA L_top ;
MOV R5, c[0x0][0x160] ;
SHL R6, R0, 0x2 ;
IADD R5, R5, R6 ;
STG.E [R5], R2 ;
EXIT ;
`
	k := sass.MustParse("dloop", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 32; lane++ {
		trips := lane + 1
		want := float32(trips * (trips - 1) / 2)
		got := math.Float32frombits(d.Load32(out + uint32(4*lane)))
		if got != want {
			t.Fatalf("lane %d: sum %v, want %v", lane, got, want)
		}
	}
}

func TestF2ISaturation(t *testing.T) {
	cases := []struct {
		in   float64
		want int32
	}{
		{1e30, math.MaxInt32},
		{-1e30, math.MinInt32},
		{math.Inf(1), math.MaxInt32},
		{math.Inf(-1), math.MinInt32},
		{math.NaN(), 0},
		{42.9, 42},
		{-42.9, -42},
	}
	for _, c := range cases {
		if got := truncToI32(c.in); got != c.want {
			t.Errorf("truncToI32(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestIMADWrapsModulo32(t *testing.T) {
	d := New(DefaultConfig())
	out := d.Alloc(4)
	src := `
MOV32I R0, 0x7fffffff ;
MOV32I R1, 0x2 ;
IMAD R2, R0, R1, R1 ;          // wraps: (2^31-1)*2+2 = 2^32 → 0
MOV R3, c[0x0][0x160] ;
STG.E [R3], R2 ;
EXIT ;
`
	k := sass.MustParse("imad", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 1, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	if got := d.Load32(out); got != 0 {
		t.Fatalf("IMAD wrap = %#x, want 0", got)
	}
}

// TestNegatedPTBranchNeverTaken: @!PT is false on every lane, so the
// branch falls through on every tier, a fused branch tail included.
func TestNegatedPTBranchNeverTaken(t *testing.T) {
	k := sass.MustParse("not_pt", `
MOV32I R1, 0x1 ;
MOV32I R2, 0x2 ;
@!PT BRA L_skip ;
MOV32I R1, 0x7 ;
L_skip:
MOV R3, c[0x0][0x160] ;
STG.E [R3], R1 ;
EXIT ;
`)
	if r := programFor(k).fk.regions[0]; !r.tail {
		t.Fatal("the @!PT BRA is not a fused branch tail")
	}
	for _, mode := range allTiers {
		d := New(DefaultConfig())
		out := d.Alloc(4)
		if _, err := d.launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 1, Params: []uint32{out}}, mode); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if got := d.Load32(out); got != 7 {
			t.Errorf("%s: R1 = %d, want 7 (branch not taken)", mode, got)
		}
	}
}

// TestIMADAddressShapesAgree runs IMAD R, R, imm|c[..], imm|c[..]|RZ (the
// address-arithmetic shape) on every tier, unguarded in a fused region body and
// under a guard that leaves the odd lanes, against the wrapped product.
func TestIMADAddressShapesAgree(t *testing.T) {
	k := sass.MustParse("imad_addr", `
S2R R0, SR_TID.X ;
IADD R1, R0, c[0x0][0x164] ;
SHL R20, R0, 0x5 ;
IADD R20, R20, c[0x0][0x160] ;
LOP.AND R7, R0, 0x1 ;
ISETP.NE.AND P0, PT, R7, RZ, PT ;
IMAD R8, R1, 0x4, c[0x0][0x160] ;
IMAD R9, R1, c[0x0][0x168], 0x10 ;
IMAD R10, R1, -c[0x0][0x168], RZ ;
@P0 IMAD R11, R1, 0x4, c[0x0][0x160] ;
@P0 IMAD R12, R1, c[0x0][0x168], RZ ;
STG.E [R20], R8 ;
STG.E [R20+0x4], R9 ;
STG.E [R20+0x8], R10 ;
STG.E [R20+0xc], R11 ;
STG.E [R20+0x10], R12 ;
EXIT ;
`)
	const big, m = 0x7ffffff0, 0x9
	for _, mode := range allTiers {
		d := New(DefaultConfig())
		out := d.Alloc(32 * 32)
		if _, err := d.launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32, Params: []uint32{out, big, m}}, mode); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		got := make([]uint32, 32*5)
		for l := 0; l < 32; l++ {
			for i := 0; i < 5; i++ {
				got[5*l+i] = d.Load32(out + uint32(32*l+4*i))
			}
			x := uint32(l) + big
			want := []uint32{x*4 + out, x*m + 0x10, -x * m, x*4 + out, x * m}
			if l&1 == 0 {
				want[3], want[4] = 0, 0
			}
			for i, w := range want {
				if got[5*l+i] != w {
					t.Errorf("%s: lane %d result %d = %#x, want %#x", mode, l, i, got[5*l+i], w)
				}
			}
		}
	}
}

func TestFTZModifierOnArithmetic(t *testing.T) {
	d := New(DefaultConfig())
	out := d.Alloc(8)
	src := `
MOV32I R0, 0x00400000 ;        // subnormal input
MOV32I R1, 0x0 ;
FADD R2, R0, R1 ;              // stays subnormal
FADD.FTZ R3, R0, R1 ;          // flushed to zero (input flush)
MOV R4, c[0x0][0x160] ;
STG.E [R4], R2 ;
STG.E [R4+0x4], R3 ;
EXIT ;
`
	k := sass.MustParse("ftz", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 1, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	if got := d.Load32(out); got != 0x00400000 {
		t.Errorf("plain FADD flushed: %#x", got)
	}
	if got := d.Load32(out + 4); got != 0 {
		t.Errorf("FADD.FTZ did not flush: %#x", got)
	}
}

func TestPredicatedStoreSkipsInactiveLanes(t *testing.T) {
	d := New(DefaultConfig())
	out := d.Alloc(4 * 32)
	src := `
S2R R0, SR_LANEID ;
MOV R1, c[0x0][0x160] ;
SHL R2, R0, 0x2 ;
IADD R1, R1, R2 ;
MOV32I R3, 0x42280000 ;       // 42.0
ISETP.EQ.AND P0, PT, R0, 0x5, PT ;
@P0 STG.E [R1], R3 ;          // only lane 5 stores
EXIT ;
`
	k := sass.MustParse("pstore", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 32; lane++ {
		got := math.Float32frombits(d.Load32(out + uint32(4*lane)))
		want := float32(0)
		if lane == 5 {
			want = 42
		}
		if got != want {
			t.Fatalf("lane %d = %v, want %v", lane, got, want)
		}
	}
}

func TestInjectedCallSkippedWhenAllLanesPredicatedOff(t *testing.T) {
	d := New(DefaultConfig())
	k := sass.MustParse("skip", `
ISETP.EQ.AND P0, PT, RZ, 0x1, PT ;   // always false
@P0 FADD R1, R1, R1 ;
EXIT ;
`)
	calls := 0
	inject := map[int][]InjectedCall{
		1: {{When: After, Fn: func(*InjCtx) error { calls++; return nil }}},
	}
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32, InjectTab: BuildInjectTable(len(k.Instrs), inject)}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("injected call ran %d times on a fully-predicated-off instruction", calls)
	}
}

func TestLaneOpsCountsActiveLanesOnly(t *testing.T) {
	d := New(DefaultConfig())
	k := sass.MustParse("half", `
S2R R0, SR_LANEID ;
ISETP.LT.AND P0, PT, R0, 0x10, PT ;
@P0 FADD R1, R1, R1 ;
EXIT ;
`)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32}); err != nil {
		t.Fatal(err)
	}
	// S2R 32 + ISETP 32 + FADD 16 + EXIT 32.
	if got := d.Stats.LaneOps; got != 112 {
		t.Fatalf("LaneOps = %d, want 112", got)
	}
}

func TestBarrierWaitsForDivergentPaths(t *testing.T) {
	// Regression: half the warp takes a divergent path that writes shared
	// memory before the barrier; the other half must observe the write
	// after BAR.SYNC even though the paths never reconverge.
	d := New(DefaultConfig())
	out := d.Alloc(4)
	src := `
S2R R0, SR_LANEID ;
MOV32I R2, 0x0 ;
ISETP.LT.AND P0, PT, R0, 0x10, PT ;
@!P0 BRA L_high ;
MOV32I R1, 0x42280000 ;        // low lanes write 42.0 to shared[0]
STS [R2], R1 ;
BAR.SYNC ;
EXIT ;
L_high:
BAR.SYNC ;
LDS R3, [R2] ;
ISETP.EQ.AND P1, PT, R0, 0x1f, PT ;
MOV R4, c[0x0][0x160] ;
@P1 STG.E [R4], R3 ;
EXIT ;
`
	k := sass.MustParse("bardiv", src)
	k.SharedBytes = 16
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	if got := math.Float32frombits(d.Load32(out)); got != 42 {
		t.Fatalf("high lanes read %v after barrier, want 42 (barrier released early?)", got)
	}
}

func TestFP16ImmediateAndModifiers(t *testing.T) {
	d := New(DefaultConfig())
	out := d.Alloc(12)
	src := `
MOV32I R0, 0x4200 ;            // 3.0 fp16
HMUL2 R1, R0, 0.5 ;            // 1.5
HADD2 R2, R0, -R0 ;            // 0
HMUL2 R3, -R0, 2.0 ;           // -6
MOV R4, c[0x0][0x160] ;
STG.E [R4], R1 ;
STG.E [R4+0x4], R2 ;
STG.E [R4+0x8], R3 ;
EXIT ;
`
	k := sass.MustParse("h16imm", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 1, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	if got := uint16(d.Load32(out)); got != 0x3E00 { // 1.5
		t.Errorf("3.0*0.5 = %#04x, want 0x3E00", got)
	}
	if got := uint16(d.Load32(out + 4)); got != 0x0000 {
		t.Errorf("3.0 + (-3.0) = %#04x, want 0", got)
	}
	if got := uint16(d.Load32(out + 8)); got != 0xC600 { // -6
		t.Errorf("-3.0*2.0 = %#04x, want 0xC600", got)
	}
}
