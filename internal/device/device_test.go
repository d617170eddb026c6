package device

import (
	"math"
	"testing"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// run assembles src, launches it with the given dims and params, and
// returns the device for inspection.
func run(t *testing.T, src string, grid, block int, params ...uint32) (*Device, LaunchStats) {
	t.Helper()
	d := New(DefaultConfig())
	k := sass.MustParse("test_kernel", src)
	st, err := d.Launch(&Launch{Kernel: k, GridDim: grid, BlockDim: block, Params: params})
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	return d, st
}

func TestVectorAddFP32(t *testing.T) {
	d := New(DefaultConfig())
	n := 64
	a := d.Alloc(uint32(4 * n))
	b := d.Alloc(uint32(4 * n))
	c := d.Alloc(uint32(4 * n))
	for i := 0; i < n; i++ {
		d.Store32(a+uint32(4*i), math.Float32bits(float32(i)))
		d.Store32(b+uint32(4*i), math.Float32bits(float32(2*i)))
	}
	src := `
S2R R0, SR_CTAID.X ;
S2R R1, SR_NTID.X ;
IMAD R0, R0, R1, RZ ;
S2R R1, SR_TID.X ;
IADD R0, R0, R1 ;        // gid
SHL R0, R0, 0x2 ;        // byte offset
MOV R2, c[0x0][0x160] ;  // a
MOV R3, c[0x0][0x164] ;  // b
MOV R4, c[0x0][0x168] ;  // c
IADD R2, R2, R0 ;
IADD R3, R3, R0 ;
IADD R4, R4, R0 ;
LDG.E R5, [R2] ;
LDG.E R6, [R3] ;
FADD R7, R5, R6 ;
STG.E [R4], R7 ;
EXIT ;
`
	k := sass.MustParse("vecadd", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 2, BlockDim: 32, Params: []uint32{a, b, c}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := math.Float32frombits(d.Load32(c + uint32(4*i)))
		if got != float32(3*i) {
			t.Fatalf("c[%d] = %v, want %v", i, got, float32(3*i))
		}
	}
}

func TestFP64PairArithmetic(t *testing.T) {
	d := New(DefaultConfig())
	in := d.Alloc(8)
	out := d.Alloc(8)
	d.Store64(in, math.Float64bits(2.5))
	src := `
MOV R0, c[0x0][0x160] ;
MOV R1, c[0x0][0x164] ;
LDG.E.64 R2, [R0] ;
DADD R4, R2, R2 ;        // 5.0
DMUL R6, R4, R4 ;        // 25.0
DFMA R8, R6, R4, R2 ;    // 25*5+2.5 = 127.5
STG.E.64 [R1], R8 ;
EXIT ;
`
	k := sass.MustParse("dbl", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 1, Params: []uint32{in, out}}); err != nil {
		t.Fatal(err)
	}
	if got := math.Float64frombits(d.Load64(out)); got != 127.5 {
		t.Fatalf("result = %v, want 127.5", got)
	}
}

func TestLoopAndBranch(t *testing.T) {
	d := New(DefaultConfig())
	out := d.Alloc(4)
	// Sum 1..10 in FP32 using a uniform loop.
	src := `
MOV32I R0, 0x0 ;             // i = 0
MOV32I R1, 0x0 ;             // sum bits = 0.0
L_top:
IADD R0, R0, 0x1 ;
I2F R2, R0 ;
FADD R1, R1, R2 ;
ISETP.LT.AND P0, PT, R0, 0xa, PT ;
@P0 BRA L_top ;
MOV R3, c[0x0][0x160] ;
STG.E [R3], R1 ;
EXIT ;
`
	k := sass.MustParse("loop", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 1, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	if got := math.Float32frombits(d.Load32(out)); got != 55 {
		t.Fatalf("sum = %v, want 55", got)
	}
}

func TestDivergentBranch(t *testing.T) {
	d := New(DefaultConfig())
	out := d.Alloc(4 * 32)
	// Lanes with tid < 16 write 1.0, others write 2.0, via divergent BRA.
	src := `
S2R R0, SR_TID.X ;
MOV R1, c[0x0][0x160] ;
SHL R2, R0, 0x2 ;
IADD R1, R1, R2 ;
ISETP.LT.AND P0, PT, R0, 0x10, PT ;
@P0 BRA L_small ;
MOV32I R3, 0x40000000 ;   // 2.0
STG.E [R1], R3 ;
EXIT ;
L_small:
MOV32I R3, 0x3f800000 ;   // 1.0
STG.E [R1], R3 ;
EXIT ;
`
	k := sass.MustParse("diverge", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		got := math.Float32frombits(d.Load32(out + uint32(4*i)))
		want := float32(2)
		if i < 16 {
			want = 1
		}
		if got != want {
			t.Fatalf("lane %d wrote %v, want %v", i, got, want)
		}
	}
}

func TestPredicatedExecution(t *testing.T) {
	d := New(DefaultConfig())
	out := d.Alloc(4 * 32)
	// Guarded FADD without any branch: odd lanes add 1.0.
	src := `
S2R R0, SR_LANEID ;
LOP.AND R1, R0, 0x1 ;
ISETP.EQ.AND P0, PT, R1, 0x1, PT ;
MOV32I R2, 0x3f800000 ;       // 1.0
MOV32I R3, 0x0 ;              // 0.0
@P0 FADD R3, R3, R2 ;
MOV R4, c[0x0][0x160] ;
SHL R5, R0, 0x2 ;
IADD R4, R4, R5 ;
STG.E [R4], R3 ;
EXIT ;
`
	k := sass.MustParse("pred", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		got := math.Float32frombits(d.Load32(out + uint32(4*i)))
		want := float32(0)
		if i%2 == 1 {
			want = 1
		}
		if got != want {
			t.Fatalf("lane %d = %v, want %v", i, got, want)
		}
	}
}

func TestNaNComparisonSelectsElseBranch(t *testing.T) {
	// The §1 motivating example: if (a < b) P else Q with a = NaN takes Q.
	d := New(DefaultConfig())
	out := d.Alloc(4)
	src := `
MOV32I R0, 0x7fc00000 ;      // a = NaN
MOV32I R1, 0x3f800000 ;      // b = 1.0
FSETP.LT.AND P0, PT, R0, R1, PT ;
MOV R2, c[0x0][0x160] ;
@P0 BRA L_then ;
MOV32I R3, 0x40000000 ;      // Q writes 2.0
STG.E [R2], R3 ;
EXIT ;
L_then:
MOV32I R3, 0x3f800000 ;      // P writes 1.0
STG.E [R2], R3 ;
EXIT ;
`
	k := sass.MustParse("nancmp", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 1, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	if got := math.Float32frombits(d.Load32(out)); got != 2 {
		t.Fatalf("NaN comparison took the then-branch (got %v)", got)
	}
}

func TestMUFURcpDivZeroAndFTZ(t *testing.T) {
	d := New(DefaultConfig())
	out := d.Alloc(16)
	src := `
MOV32I R0, 0x0 ;             // 0.0
MUFU.RCP R1, R0 ;            // 1/0 = +INF
MOV32I R2, 0x00000001 ;      // min subnormal
MUFU.RCP R3, R2 ;            // 1/1.4e-45 overflows FP32 → +INF
MOV R4, c[0x0][0x160] ;
STG.E [R4], R1 ;
STG.E [R4+0x4], R3 ;
EXIT ;
`
	k := sass.MustParse("rcp", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 1, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	if got := d.Load32(out); got != fpval.Inf32 {
		t.Errorf("1/0 = %#x, want +INF", got)
	}
	if got := d.Load32(out + 4); got != fpval.Inf32 {
		t.Errorf("1/subnormal (SFU-flushed) = %#x, want +INF", got)
	}
}

func TestMUFURcp64H(t *testing.T) {
	d := New(DefaultConfig())
	out := d.Alloc(8)
	// Approximate 1/2.0 from the high word of the double 2.0.
	hi := uint32(math.Float64bits(2.0) >> 32)
	src := `
MOV R2, c[0x0][0x164] ;      // high word of 2.0
MUFU.RCP64H R3, R2 ;         // high word of ~0.5
MOV32I R2, 0x0 ;             // zero low word
MOV R0, c[0x0][0x160] ;
STG.E.64 [R0], R2 ;          // store pair (R2,R3)
EXIT ;
`
	k := sass.MustParse("rcp64h", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 1, Params: []uint32{out, hi}}); err != nil {
		t.Fatal(err)
	}
	got := math.Float64frombits(d.Load64(out))
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("RCP64H approx = %v, want ~0.5", got)
	}
}

func TestFMNMXNaNNonPropagation(t *testing.T) {
	// NVIDIA's 2008-standard min/max drops a single NaN operand.
	if got := fmnmx32(float32(math.NaN()), 3, true); got != 3 {
		t.Errorf("min(NaN, 3) = %v, want 3", got)
	}
	if got := fmnmx32(5, float32(math.NaN()), false); got != 5 {
		t.Errorf("max(5, NaN) = %v, want 5", got)
	}
	if got := fmnmx32(float32(math.NaN()), float32(math.NaN()), true); got == got {
		t.Errorf("min(NaN, NaN) = %v, want NaN", got)
	}
	if got := fmnmx32(2, 3, true); got != 2 {
		t.Errorf("min(2,3) = %v", got)
	}
	if got := fmnmx32(2, 3, false); got != 3 {
		t.Errorf("max(2,3) = %v", got)
	}
}

func TestFSELAndFSET(t *testing.T) {
	d := New(DefaultConfig())
	out := d.Alloc(8)
	src := `
MOV32I R0, 0x3f800000 ;       // 1.0
MOV32I R1, 0x40000000 ;       // 2.0
FSETP.GT.AND P1, PT, R1, R0, PT ;
FSEL R2, R0, R1, P1 ;         // P1 true → R0 (1.0)
FSEL R3, R0, R1, !P1 ;        // !P1 false → R1 (2.0)
MOV R4, c[0x0][0x160] ;
STG.E [R4], R2 ;
STG.E [R4+0x4], R3 ;
EXIT ;
`
	k := sass.MustParse("fsel", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 1, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	if got := math.Float32frombits(d.Load32(out)); got != 1 {
		t.Errorf("FSEL true = %v, want 1", got)
	}
	if got := math.Float32frombits(d.Load32(out + 4)); got != 2 {
		t.Errorf("FSEL false = %v, want 2", got)
	}
}

func TestSharedMemoryAndBarrier(t *testing.T) {
	d := New(DefaultConfig())
	out := d.Alloc(4)
	// Two warps: warp 0 writes shared[0], BAR, warp 1 reads it.
	src := `
S2R R0, SR_TID.X ;
ISETP.EQ.AND P0, PT, R0, 0x0, PT ;
MOV32I R1, 0x42280000 ;       // 42.0
MOV32I R2, 0x0 ;
@P0 STS [R2], R1 ;
BAR.SYNC ;
ISETP.EQ.AND P1, PT, R0, 0x20, PT ;  // tid 32 = first lane of warp 1
MOV R3, c[0x0][0x160] ;
LDS R4, [R2] ;
@P1 STG.E [R3], R4 ;
EXIT ;
`
	k := sass.MustParse("shmem", src)
	k.SharedBytes = 64
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 64, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	if got := math.Float32frombits(d.Load32(out)); got != 42 {
		t.Fatalf("shared roundtrip = %v, want 42", got)
	}
}

func TestInjectedCallsBeforeAfter(t *testing.T) {
	d := New(DefaultConfig())
	k := sass.MustParse("inj", `
MOV32I R1, 0x3f800000 ;
FADD R1, R1, R1 ;
EXIT ;
`)
	var before, after []uint32
	inject := map[int][]InjectedCall{
		1: {
			{When: Before, Cost: 10, Fn: func(c *InjCtx) error {
				before = append(before, c.Reg32(0, 1))
				return nil
			}},
			{When: After, Cost: 10, Fn: func(c *InjCtx) error {
				after = append(after, c.Reg32(0, 1))
				return nil
			}},
		},
	}
	base, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 1})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 1, InjectTab: BuildInjectTable(len(k.Instrs), inject)})
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 1 || len(after) != 1 {
		t.Fatalf("hook counts: before=%d after=%d", len(before), len(after))
	}
	if math.Float32frombits(before[0]) != 1 || math.Float32frombits(after[0]) != 2 {
		t.Fatalf("before=%v after=%v", math.Float32frombits(before[0]), math.Float32frombits(after[0]))
	}
	if inst.Cycles != base.Cycles+20 {
		t.Fatalf("instrumented cycles %d, want base %d + 20", inst.Cycles, base.Cycles)
	}
}

func TestChannelCongestionAndHang(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChannelCapacity = 4
	cfg.ChannelCyclesPerWord = 100
	cfg.HangBudget = 10_000
	d := New(cfg)
	var got int
	d.OnPacket(func(p Packet) { got++ })
	// Spam packets: after the capacity window fills, pushes stall; the
	// budget then trips ErrHang.
	var err error
	for i := 0; i < 1_000; i++ {
		if err = d.PushPacket(Packet{Words: 4}); err != nil {
			break
		}
	}
	if err != ErrHang {
		t.Fatalf("expected ErrHang, got %v after %d packets", err, got)
	}
	if d.Stats.StallCycles == 0 {
		t.Fatal("expected stall cycles to accumulate")
	}
}

func TestChannelNoStallWhenSlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChannelCapacity = 1024
	cfg.ChannelCyclesPerWord = 10
	d := New(cfg)
	// Pushes far apart in time never stall.
	for i := 0; i < 100; i++ {
		d.Cycles += 1_000
		if err := d.PushPacket(Packet{Words: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if d.Stats.StallCycles != 0 {
		t.Fatalf("unexpected stalls: %d", d.Stats.StallCycles)
	}
}

func TestLeaderLane(t *testing.T) {
	w := newWarp(0, 0, 0, 4, 32)
	if w.LeaderLane() != 0 {
		t.Fatal("full warp leader should be lane 0")
	}
	w.active = 0b1100
	if w.LeaderLane() != 2 {
		t.Fatalf("leader = %d, want 2", w.LeaderLane())
	}
	w.active = 0
	if w.LeaderLane() != -1 {
		t.Fatal("empty warp leader should be -1")
	}
}

func TestPartialWarpBlockDim(t *testing.T) {
	// BlockDim 40 → warp 0 full, warp 1 has 8 lanes.
	d := New(DefaultConfig())
	out := d.Alloc(4 * 40)
	src := `
S2R R0, SR_TID.X ;
MOV R1, c[0x0][0x160] ;
SHL R2, R0, 0x2 ;
IADD R1, R1, R2 ;
I2F R3, R0 ;
STG.E [R1], R3 ;
EXIT ;
`
	k := sass.MustParse("partial", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 40, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if got := math.Float32frombits(d.Load32(out + uint32(4*i))); got != float32(i) {
			t.Fatalf("tid %d wrote %v", i, got)
		}
	}
}

func TestFCHKSpecialCases(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	sub := math.Float32frombits(1)
	cases := []struct {
		a, b float32
		want bool
	}{
		{1, 2, false},
		{6, 3, false},
		{1, 0, true},
		{0, 0, true},
		{inf, 1, true},
		{1, inf, true},
		{nan, 1, true},
		{1, nan, true},
		{sub, 1, true},
		{1, sub, true},
		{0, 5, false},
		{1e38, 1e-38, true}, // overflow risk
		{1e-38, 1e38, true}, // underflow risk
	}
	for _, c := range cases {
		if got := fchkSpecial(c.a, c.b); got != c.want {
			t.Errorf("fchkSpecial(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestFcmpNaNSemantics(t *testing.T) {
	nan := math.NaN()
	ordered := []string{"LT", "LE", "GT", "GE", "EQ", "NE"}
	for _, m := range ordered {
		if fcmp(m, nan, 1) || fcmp(m, 1, nan) {
			t.Errorf("%s must be false on NaN", m)
		}
	}
	unordered := []string{"LTU", "LEU", "GTU", "GEU", "EQU", "NEU"}
	for _, m := range unordered {
		if !fcmp(m, nan, 1) {
			t.Errorf("%s must be true on NaN", m)
		}
	}
	if !fcmp("LT", 1, 2) || fcmp("LT", 2, 1) || !fcmp("GE", 2, 2) {
		t.Error("basic ordered comparisons broken")
	}
}

func TestStatsCounting(t *testing.T) {
	_, st := run(t, `
MOV32I R1, 0x3f800000 ;
FADD R1, R1, R1 ;
DADD R2, R2, R2 ;
EXIT ;
`, 1, 32)
	if st.Instructions != 4 {
		t.Errorf("instructions = %d, want 4", st.Instructions)
	}
	if st.FPInstructions != 2 {
		t.Errorf("fp instructions = %d, want 2", st.FPInstructions)
	}
	if st.Cycles == 0 {
		t.Error("cycles not counted")
	}
}

func TestAllocAlignmentAndOOM(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 12
	d := New(cfg)
	a := d.Alloc(3)
	b := d.Alloc(8)
	if b%16 != 0 || b <= a {
		t.Fatalf("allocations not aligned: a=%d b=%d", a, b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected OOM panic")
		}
	}()
	d.Alloc(1 << 13)
}

func TestResetClearsState(t *testing.T) {
	d := New(DefaultConfig())
	addr := d.Alloc(4)
	d.Store32(addr, 42)
	d.Cycles = 999
	d.Reset()
	if d.Load32(addr) != 0 || d.Cycles != 0 || d.Stats.Instructions != 0 {
		t.Fatal("Reset did not clear state")
	}
	if got := d.Alloc(4); got != addr {
		t.Fatalf("allocator not reset: %d vs %d", got, addr)
	}
}

func TestF2FConversions(t *testing.T) {
	d := New(DefaultConfig())
	out := d.Alloc(16)
	src := `
MOV32I R0, 0x40490fdb ;       // pi f32
F2F.F64.F32 R2, R0 ;          // widen
F2F.F32.F64 R4, R2 ;          // narrow back
MOV R5, c[0x0][0x160] ;
STG.E [R5], R4 ;
STG.E.64 [R5+0x8], R2 ;
EXIT ;
`
	k := sass.MustParse("f2f", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 1, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	pi32 := math.Float32frombits(0x40490fdb)
	if got := math.Float32frombits(d.Load32(out)); got != pi32 {
		t.Errorf("f32→f64→f32 = %v, want %v", got, pi32)
	}
	if got := math.Float64frombits(d.Load64(out + 8)); got != float64(pi32) {
		t.Errorf("widened = %v, want %v", got, float64(pi32))
	}
}

func TestRZIsAlwaysZero(t *testing.T) {
	d := New(DefaultConfig())
	out := d.Alloc(4)
	src := `
MOV32I RZ, 0xdeadbeef ;       // discarded
MOV R1, c[0x0][0x160] ;
STG.E [R1], RZ ;
EXIT ;
`
	k := sass.MustParse("rz", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 1, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	if got := d.Load32(out); got != 0 {
		t.Fatalf("RZ = %#x, want 0", got)
	}
}

func TestHADD2FP16(t *testing.T) {
	d := New(DefaultConfig())
	out := d.Alloc(4)
	src := `
MOV32I R0, 0x3c00 ;          // 1.0 fp16
MOV32I R1, 0x4000 ;          // 2.0 fp16
HADD2 R2, R0, R1 ;
MOV R3, c[0x0][0x160] ;
STG.E [R3], R2 ;
EXIT ;
`
	k := sass.MustParse("h16", src)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 1, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	if got := uint16(d.Load32(out)); got != 0x4200 { // 3.0 fp16
		t.Fatalf("HADD2 = %#04x, want 0x4200", got)
	}
}
