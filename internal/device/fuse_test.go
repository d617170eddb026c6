package device

import (
	"testing"

	"gpufpx/internal/sass"
)

// stableParams reads its loop operands from the constant bank and writes a
// predicate (P2) that nothing reads: launched with the same parameters every
// time, it is the shape a launch-profile specializer would rewrite.
var stableParams = sass.MustParse("fuse_stable_params", `
MOV32I R1, 0x0 ;
MOV R2, c[0x0][0x160] ;
MOV32I R3, 0x3f000000 ;
L_top:
FFMA R2, R2, R3, c[0x0][0x164] ;
FADD R4, R2, c[0x0][0x168] ;
FSETP.GT.AND P2, PT, R4, R2, PT ;
IADD R1, R1, 0x1 ;
ISETP.LT.AND P0, PT, R1, 0x40, PT ;
@P0 BRA L_top ;
EXIT ;
`)

// TestFusedProgramStableAcrossLaunches launches one fused kernel sixteen
// times — well past any launch count a profiling tier could key on — and
// requires every launch to dispatch the one program built at first use:
// the fusion cache hands back the same program, no fusion counter moves
// after the first launch, every launch reports the same stats, and launches
// 9–16 allocate exactly as much as launches 1–8.
func TestFusedProgramStableAcrossLaunches(t *testing.T) {
	k := stableParams
	d := New(DefaultConfig())
	l := &Launch{Kernel: k, GridDim: 2, BlockDim: 64, Exec: ExecFused,
		Params: []uint32{0x3f800000, 0x3e800000, 0x3dcccccd}}

	var first LaunchStats
	var fk *fusedKernel
	var fs FuseStats
	launches := 0
	launch := func() {
		st, err := d.Launch(l)
		if err != nil {
			t.Fatal(err)
		}
		launches++
		got := fuseFor(k)
		if launches == 1 {
			first, fk, fs = st, got, FuseStatsSnapshot()
			if fk == nil || len(fk.regions) == 0 {
				t.Fatalf("%s: no fused regions", k.Name)
			}
			return
		}
		if got != fk {
			t.Errorf("launch %d: fused program %p, first launch %p", launches, got, fk)
		}
		if st != first {
			t.Errorf("launch %d: stats %+v, first launch %+v", launches, st, first)
		}
		if now := FuseStatsSnapshot(); now != fs {
			t.Errorf("launch %d: fusion counters moved: %+v, after first launch %+v", launches, now, fs)
		}
	}
	// AllocsPerRun makes one warm-up call and then the measured ones: the
	// first window covers launches 1–8, the second launches 9–16.
	early := testing.AllocsPerRun(7, launch)
	late := testing.AllocsPerRun(7, launch)
	if launches != 16 {
		t.Fatalf("ran %d launches, want 16", launches)
	}
	if late != early && !raceEnabled {
		t.Errorf("launches 9-16 allocate %.0f/launch, launches 1-8 %.0f/launch", late, early)
	}
}
