package gpufpx_test

// Fault-plane determinism across executor tiers: a seeded device-plane run
// must produce the same fault log, the same error and the same detector
// report under the reference interpreter, the lowered thunks and the
// production tier, and again when rerun. A fault stream is a serial
// dependence on retirement order, so any tier that retired instructions in
// a different order (or the production tier running a fused region's body
// without stepping each instruction's injected fault call) shows up here.
// Campaign trials strike through the same kind of call.
//
// The test name is historical: it once also compared block-parallel runs
// against sequential ones.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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

// faultDigests pins the production tier's seed-11 device-plane outcome
// (fault log, error and detector report) per program. The tier-to-tier
// differential above cannot see a change that moves every tier the same
// way; these digests can.
var faultDigests = map[string]string{
	"GRAMSCHM": "f18cbc732e3bd80275705118288a063e2bd7a5a4997a817d589efb7de24e14b7",
	"scan":     "3949355068978ef94499bdcb2cab16688b4effef715477045e7913046ca37d19",
}

// TestFaultLogDigests pins the seeded fault logs and detector reports.
func TestFaultLogDigests(t *testing.T) {
	for _, prog := range []string{"GRAMSCHM", "scan"} {
		o := runSeededFaults(t, prog, "fused")
		if o.faults == "" || o.report == nil {
			t.Fatalf("%s: no faults or no detector report; the digest pins nothing", prog)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%s\n--\n%s\n--\n", o.faults, o.errStr)
		h.Write(o.report)
		if got := hex.EncodeToString(h.Sum(nil)); got != faultDigests[prog] {
			t.Errorf("%s: fault-run digest = %s, want %s\nfaults:\n%s\nerr: %s", prog, got, faultDigests[prog], o.faults, o.errStr)
		}
	}
}
