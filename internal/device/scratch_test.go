package device

// Scratch-pool tests: the steady-state launch path must not scale its
// allocations with the launch geometry, and the pooled InjectTable clones
// must be independent deep copies.

import (
	"testing"

	"gpufpx/internal/sass"
)

// steadyAllocs measures allocations per launch on tier mode after a
// warm-up launch has built the kernel's program and filled the scratch
// pools. Under the race detector the counts mean nothing (sync.Pool drops
// a random share of Puts), so it runs one pooled launch after the warm-up
// — enough for race coverage of the pooled paths — and returns 0.
func steadyAllocs(t *testing.T, l *Launch, mode tier) float64 {
	t.Helper()
	d := New(DefaultConfig())
	if _, err := d.launch(l, mode); err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		if _, err := d.launch(l, mode); err != nil {
			t.Fatal(err)
		}
		return 0
	}
	return testing.AllocsPerRun(20, func() {
		if _, err := d.launch(l, mode); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLaunchSteadyStateAllocs(t *testing.T) {
	for _, mode := range allTiers {
		small := steadyAllocs(t, &Launch{Kernel: ffmaDense, GridDim: 1, BlockDim: 32}, mode)
		big := steadyAllocs(t, &Launch{Kernel: ffmaDense, GridDim: 16, BlockDim: 256}, mode)
		if raceEnabled {
			continue // no counts under the race detector; see steadyAllocs
		}
		// A few fixed allocations per launch remain (the executor itself,
		// its cleanup closure); what the pools must guarantee is that the
		// count no longer grows with warps, blocks or shared memory.
		if small > 8 {
			t.Errorf("mode %v: %.0f allocs for a 1x32 launch, want the pooled handful", mode, small)
		}
		if big > small+2 {
			t.Errorf("mode %v: allocs grew with geometry (1x32: %.0f, 16x256: %.0f)", mode, small, big)
		}
	}
}

func TestLaunchSteadyStateAllocsInstrumented(t *testing.T) {
	// The instrumented fused path additionally exercises the pooled
	// regionDirty scratch and the table split.
	tab := NewInjectTable(len(ffmaDense.Instrs))
	for i := range ffmaDense.Instrs {
		in := &ffmaDense.Instrs[i]
		if dst, ok := in.DestReg(); ok && dst != sass.RZ && in.Op.IsFP32Compute() {
			tab.Add(in.PC, InjectedCall{When: After, Cost: 8, Fn: func(ctx *InjCtx) error { return nil }})
		}
	}
	small := steadyAllocs(t, &Launch{Kernel: ffmaDense, GridDim: 1, BlockDim: 32, InjectTab: tab}, tierFused)
	big := steadyAllocs(t, &Launch{Kernel: ffmaDense, GridDim: 16, BlockDim: 256, InjectTab: tab}, tierFused)
	if raceEnabled {
		return // no counts under the race detector; see steadyAllocs
	}
	if small > 8 {
		t.Errorf("instrumented fused: %.0f allocs for a 1x32 launch, want the pooled handful", small)
	}
	if big > small+2 {
		t.Errorf("instrumented fused: allocs grew with geometry (%.0f → %.0f)", small, big)
	}
}

func TestClonePooledIndependence(t *testing.T) {
	src := NewInjectTable(4)
	fn := func(ctx *InjCtx) error { return nil }
	src.Add(1, InjectedCall{When: Before, Cost: 1, Fn: fn})
	src.Add(1, InjectedCall{When: After, Cost: 2, Fn: fn})
	src.Add(3, InjectedCall{When: Before, Cost: 3, Fn: fn})

	c := src.ClonePooled()
	if c.n != src.n || len(c.before) != len(src.before) {
		t.Fatalf("clone shape differs: n=%d len=%d, want n=%d len=%d", c.n, len(c.before), src.n, len(src.before))
	}
	// Mutating the clone must not reach the source.
	c.Add(1, InjectedCall{When: Before, Cost: 9, Fn: fn})
	if len(src.before[1]) != 1 {
		t.Fatal("clone mutation leaked into the source table")
	}
	c.Release()

	// A table drawn after release starts from the recycled memory; it must
	// still be a faithful, independent copy.
	c2 := src.ClonePooled()
	if c2.n != src.n || len(c2.before[1]) != 1 || len(c2.after[1]) != 1 || len(c2.before[3]) != 1 {
		t.Fatalf("recycled clone is not a faithful copy: n=%d", c2.n)
	}
	if c2.before[1][0].Cost != 1 || c2.after[1][0].Cost != 2 || c2.before[3][0].Cost != 3 {
		t.Fatal("recycled clone carries stale calls")
	}
	c2.Release()

	// Shrinking reuse: a smaller source must not see the larger table's
	// leftovers.
	small := NewInjectTable(2)
	small.Add(0, InjectedCall{When: Before, Cost: 7, Fn: fn})
	c3 := small.ClonePooled()
	if c3.n != 1 || len(c3.before) != 2 || len(c3.before[0]) != 1 || len(c3.before[1]) != 0 {
		t.Fatalf("shrunk clone wrong: n=%d len=%d", c3.n, len(c3.before))
	}
	c3.Release()
}
