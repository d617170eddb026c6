package gpufpx_test

// Fault-plane determinism across executor tiers: a seeded device-plane run
// must produce the same fault log, the same error and the same detector
// report under the reference interpreter, the lowered thunks and the
// production tier, and again when rerun. A fault stream is a serial
// dependence on retirement order, so any tier that retired instructions in
// a different order (or the production tier failing to step per
// instruction while a hook is attached) shows up here. Campaign trials
// ride on the same hook.
//
// The test name is historical: it once also compared block-parallel runs
// against sequential ones.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"gpufpx/internal/device"
	"gpufpx/pkg/gpufpx"
)

// faultOutcome is everything a seeded fault-plane run externalizes.
type faultOutcome struct {
	faults string
	report []byte
	errStr string
}

func runSeededFaults(t *testing.T, prog, tier string) faultOutcome {
	t.Helper()
	defer device.ForceTierForTest(tier)()
	s := gpufpx.New(
		gpufpx.WithFaults(gpufpx.FaultPlan{Seed: 11, Rate: 1e-3, Planes: gpufpx.FaultPlaneDevice}),
		gpufpx.WithCycleBudget(1<<24),
	)
	rep, err := s.Run(context.Background(), gpufpx.Program(prog))
	var o faultOutcome
	if err != nil {
		// A fault-induced failure must fail identically under every
		// executor.
		o.errStr = err.Error()
	}
	if rep != nil {
		var lines []string
		for _, ev := range rep.Faults {
			lines = append(lines, ev.String())
		}
		o.faults = strings.Join(lines, "\n")
		if rep.Detector != nil {
			var buf bytes.Buffer
			if werr := rep.WriteJSON(&buf); werr != nil {
				t.Fatalf("WriteJSON: %v", werr)
			}
			o.report = buf.Bytes()
		}
	}
	return o
}

func TestFaultLogsIdenticalUnderBlockParallelism(t *testing.T) {
	for _, prog := range []string{"GRAMSCHM", "scan"} {
		ref := runSeededFaults(t, prog, "interp")
		if ref.faults == "" {
			t.Fatalf("%s: seeded run injected no faults; the differential proves nothing", prog)
		}
		for _, tier := range []string{"interp", "lowered", "fused"} {
			t.Run(prog+"/"+tier, func(t *testing.T) {
				got := runSeededFaults(t, prog, tier)
				if got.errStr != ref.errStr {
					t.Fatalf("error diverged: interp %q vs %s %q", ref.errStr, tier, got.errStr)
				}
				if got.faults != ref.faults {
					t.Errorf("fault logs diverged:\ninterp:\n%s\n%s:\n%s", ref.faults, tier, got.faults)
				}
				if !bytes.Equal(got.report, ref.report) {
					t.Errorf("detector reports diverged between interp and %s", tier)
				}
			})
		}
	}
}
