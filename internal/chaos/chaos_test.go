package chaos

// The chaos e2e: the acceptance harness behind fpx-stress -chaos, at a size
// a test run can afford. The golden subset spans the corpus suites; the
// storm runs the full 64 clients against an in-process chaos-mode server.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

var goldenSubset = []string{"myocyte", "GRAMSCHM", "HPCG", "libor", "SRU-Example"}

func TestLocalPhaseByteIdentical(t *testing.T) {
	cfg := Config{Seed: 7, Rate: 1e-3, Programs: goldenSubset}
	res, err := Local(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Fatal("concurrent pass diverged from the sequential fault log")
	}
	if len(res.Log) == 0 {
		t.Fatal("rate 1e-3 injected nothing across the golden subset")
	}
	// Every run terminated classified; "internal" would mean an unhandled
	// panic escaped the barrier.
	if n := res.Outcomes["internal"]; n != 0 {
		t.Fatalf("%d runs ended with internal errors", n)
	}

	// A second full campaign must reproduce the log byte for byte — the
	// cross-process determinism the recorded seed relies on.
	again, err := Local(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Log) != len(res.Log) {
		t.Fatalf("second campaign injected %d faults, first %d", len(again.Log), len(res.Log))
	}
	for i := range res.Log {
		if res.Log[i] != again.Log[i] {
			t.Fatalf("log line %d differs:\n  %s\n  %s", i, res.Log[i], again.Log[i])
		}
	}
}

func TestLocalPhaseSeedSensitivity(t *testing.T) {
	// The full subset: a single program can lose its whole log to a
	// recovered resource panic (nil report), which would make two empty
	// logs compare equal.
	a, err := Local(context.Background(), Config{Seed: 7, Rate: 1e-3, Programs: goldenSubset})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Local(context.Background(), Config{Seed: 8, Rate: 1e-3, Programs: goldenSubset})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Log) == 0 || len(b.Log) == 0 {
		t.Fatalf("empty campaign logs (%d, %d)", len(a.Log), len(b.Log))
	}
	if len(a.Log) == len(b.Log) {
		same := true
		for i := range a.Log {
			if a.Log[i] != b.Log[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seeds 7 and 8 produced identical fault logs")
		}
	}
}

// cancelAfterFirstWrite is an Out sink that cancels the campaign context on
// its first progress line — a prompt operator abort mid-campaign.
type cancelAfterFirstWrite struct {
	cancel context.CancelFunc
	writes int
}

func (c *cancelAfterFirstWrite) Write(p []byte) (int, error) {
	c.writes++
	if c.writes == 1 {
		c.cancel()
	}
	return len(p), nil
}

func TestLocalPhaseAbortsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &cancelAfterFirstWrite{cancel: cancel}

	res, err := Local(ctx, Config{Seed: 7, Rate: 1e-3, Programs: goldenSubset, Out: out})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted campaign error = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("aborted campaign returned no partial result")
	}
	// The abort fired after the first program's progress line; the campaign
	// must stop before running the whole corpus again.
	var runs int
	for _, n := range res.Outcomes {
		runs += n
	}
	if runs == 0 || runs >= len(goldenSubset) {
		t.Fatalf("aborted campaign ran %d of %d programs, want a strict partial", runs, len(goldenSubset))
	}
}

func TestServiceStormAbortStillDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // aborted before the first request

	res, err := Service(ctx, Config{
		Seed:     11,
		Rate:     1e-3,
		Programs: goldenSubset,
		Clients:  8,
		Requests: 2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted storm error = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("aborted storm returned no partial result")
	}
	// The clean-drain promise is exactly for the abort path: the daemon must
	// still be health-checked and drained, not leaked.
	if !res.Healthy {
		t.Fatal("aborted storm leaked the daemon (unhealthy or failed drain)")
	}
	if res.Unclassified != 0 {
		t.Fatalf("abort misclassified %d raced requests", res.Unclassified)
	}
}

func TestServiceStormSurvives64Clients(t *testing.T) {
	var out strings.Builder
	res, err := Service(context.Background(), Config{
		Seed:     11,
		Rate:     1e-3,
		Programs: goldenSubset,
		Clients:  64,
		Requests: 2,
		Out:      &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One line per status seen, in ascending status order, so two runs'
	// output compares byte for byte.
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(res.Statuses) {
		t.Fatalf("%d status lines for statuses %v:\n%s", len(lines), res.Statuses, out.String())
	}
	for i, prev := 0, 0; i < len(lines); i++ {
		var status, n int
		if _, err := fmt.Sscanf(lines[i], "chaos: service status %d: %d", &status, &n); err != nil {
			t.Fatalf("line %q: %v", lines[i], err)
		}
		if res.Statuses[status] != n || i > 0 && status <= prev {
			t.Fatalf("status lines not one per status in ascending order (statuses %v):\n%s", res.Statuses, out.String())
		}
		prev = status
	}
	if res.Unclassified != 0 {
		t.Fatalf("%d requests terminated unclassified (statuses %v)", res.Unclassified, res.Statuses)
	}
	if !res.Healthy {
		t.Fatal("daemon unhealthy or failed to drain after the storm")
	}
	if res.Statuses[200] == 0 {
		t.Fatalf("no request succeeded under chaos (statuses %v)", res.Statuses)
	}
}
