package gpufpx_test

// Fault-plane determinism across executors: a seeded device-plane run must
// produce the same fault log, the same error and the same detector report
// under interp, lowered and fused dispatch, and again when rerun. A fault
// stream is a serial dependence on retirement order, so any executor that
// retired instructions in a different order (or the fused tier failing to
// step per instruction while a hook is attached) shows up here. Campaign
// trials ride on the same hook.
//
// The test name is historical: it once also compared block-parallel runs
// against sequential ones.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"gpufpx/pkg/gpufpx"
)

// faultOutcome is everything a seeded fault-plane run externalizes.
type faultOutcome struct {
	faults string
	report []byte
	errStr string
}

func runSeededFaults(t *testing.T, prog string, mode gpufpx.ExecMode) faultOutcome {
	t.Helper()
	s := gpufpx.New(
		gpufpx.WithExec(mode),
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
	modes := []struct {
		name string
		mode gpufpx.ExecMode
	}{
		{"interp", gpufpx.ExecInterp},
		{"lowered", gpufpx.ExecLowered},
		{"fused", gpufpx.ExecFused},
	}
	for _, prog := range []string{"GRAMSCHM", "scan"} {
		ref := runSeededFaults(t, prog, gpufpx.ExecInterp)
		if ref.faults == "" {
			t.Fatalf("%s: seeded run injected no faults; the differential proves nothing", prog)
		}
		for _, m := range modes {
			t.Run(prog+"/"+m.name, func(t *testing.T) {
				got := runSeededFaults(t, prog, m.mode)
				if got.errStr != ref.errStr {
					t.Fatalf("error diverged: interp %q vs %s %q", ref.errStr, m.name, got.errStr)
				}
				if got.faults != ref.faults {
					t.Errorf("fault logs diverged:\ninterp:\n%s\n%s:\n%s", ref.faults, m.name, got.faults)
				}
				if !bytes.Equal(got.report, ref.report) {
					t.Errorf("detector reports diverged between interp and %s", m.name)
				}
			})
		}
	}
}
