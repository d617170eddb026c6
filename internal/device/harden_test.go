package device

// Hardening tests: launch-time validation of malformed kernels (the raw-SASS
// surface) and cooperative cancellation bounds.

import (
	"errors"
	"testing"

	"gpufpx/internal/sass"
)

func TestMalformedArityRejectedAtLaunch(t *testing.T) {
	// FMUL with one source parses but would make the executors index a
	// missing operand; every tier must reject it at launch, not panic.
	for _, mode := range allTiers {
		d := New(DefaultConfig())
		k := sass.MustParse("bad-arity", "FMUL R2, R3 ;\nEXIT ;")
		_, err := d.launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32}, mode)
		if !errors.Is(err, ErrUnsupported) {
			t.Fatalf("mode %v: err = %v, want ErrUnsupported", mode, err)
		}
	}
}

func TestWidePairHazardsRejected(t *testing.T) {
	cases := []struct{ name, src string }{
		// RZ has no pair partner: Reg+1 would index slot 256.
		{"rz-pair", "DADD R2, RZ, R4 ;\nEXIT ;"},
		// F2F.F64.F32's destination pair is invisible to Finalize's
		// register sizing, so the pair can fall off the register file.
		{"f2f-pair", "F2F.F64.F32 R4, R2 ;\nEXIT ;"},
		// The same pair with .FTZ ahead of the formats.
		{"f2f-ftz-pair", "F2F.FTZ.F64.F32 R4, R2 ;\nEXIT ;"},
	}
	for _, tc := range cases {
		d := New(DefaultConfig())
		k := sass.MustParse(tc.name, tc.src)
		_, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32})
		if !errors.Is(err, ErrUnsupported) {
			t.Fatalf("%s: err = %v, want ErrUnsupported", tc.name, err)
		}
	}
}

func TestValidKernelsStillLaunch(t *testing.T) {
	// The validator must not reject well-formed kernels, wide pairs
	// included.
	d := New(DefaultConfig())
	k := sass.MustParse("ok", `
DADD R2, R4, R6 ;
FADD R8, R9, R10 ;
EXIT ;
`)
	if _, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32}); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
}

func TestValidationErrorIsStablePerKernel(t *testing.T) {
	// Validation runs once per kernel program; every launch of the same
	// malformed kernel reports the same classified error.
	d := New(DefaultConfig())
	k := sass.MustParse("bad-twice", "MUFU.RCP R2 ;\nEXIT ;")
	_, err1 := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32})
	_, err2 := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32})
	if !errors.Is(err1, ErrUnsupported) || err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("launches disagree: %v vs %v", err1, err2)
	}
}

func TestCancelBeforeLaunchStopsPromptly(t *testing.T) {
	d := New(DefaultConfig())
	k := sass.MustParse("spin", "L_top:\nBRA L_top ;\n")
	cancel := make(chan struct{})
	close(cancel)
	_, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32, Cancel: cancel})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// The poll interval is 1024 issued instructions; a pre-closed channel
	// must stop the launch inside the first window.
	if d.Stats.Instructions > 2048 {
		t.Fatalf("ran %d instructions after cancellation, want bounded by the poll window", d.Stats.Instructions)
	}
}

func TestCancelMidLaunchIsBounded(t *testing.T) {
	for _, mode := range allTiers {
		d := New(DefaultConfig())
		// The loop body needs a non-branch instruction: injected calls (the
		// cancel trigger here) run on computing instructions only. On the
		// fused tier the loop is one instrumented region of body plus
		// branch tail, two instructions, so the body alone never issues a
		// multiple of the poll interval: the tail must poll too.
		k := sass.MustParse("spin", "L_top:\nFADD R2, R2, R3 ;\nBRA L_top ;\n")
		cancel := make(chan struct{})
		fired := false
		visits := 0
		inject := map[int][]InjectedCall{0: {{When: Before, Cost: 1, Fn: func(c *InjCtx) error {
			visits++
			if visits == 100 && !fired {
				fired = true
				close(cancel)
			}
			return nil
		}}}}
		_, err := d.launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32, Cancel: cancel, InjectTab: BuildInjectTable(len(k.Instrs), inject)}, mode)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("mode %v: err = %v, want ErrCanceled", mode, err)
		}
		// Cancellation lands within one poll window of the close: the warp
		// had retired ~100 instructions, so well under 100 + 1024 + slack.
		if d.Stats.Instructions > 100+2048 {
			t.Fatalf("mode %v: ran %d instructions, want prompt stop after cancel", mode, d.Stats.Instructions)
		}
	}
}

func TestNoCancelChannelRunsToBudget(t *testing.T) {
	// Without a Cancel channel the spin kernel must still terminate via the
	// dynamic-instruction budget, classified as ErrBudget — the poll must
	// not misfire on a nil channel.
	d := New(DefaultConfig())
	k := sass.MustParse("spin", "L_top:\nBRA L_top ;\n")
	_, err := d.Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32, MaxDynInstr: 5000})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}
