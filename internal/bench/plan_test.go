package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sync"
	"testing"

	"gpufpx/internal/progs"
)

// withoutPlan hides the published evaluation for one test, so Table7 and
// TwoPhase measure their own runs.
func withoutPlan(t *testing.T) {
	t.Helper()
	old := current.Swap(nil)
	t.Cleanup(func() { current.Store(old) })
}

// countRuns installs a runHook that counts executed keys for one test.
func countRuns(t *testing.T) (counts func() map[runKey]int) {
	t.Helper()
	var mu sync.Mutex
	seen := map[runKey]int{}
	runHook = func(k runKey) {
		mu.Lock()
		seen[k]++
		mu.Unlock()
	}
	t.Cleanup(func() { runHook = nil })
	return func() map[runKey]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[runKey]int, len(seen))
		for k, n := range seen {
			out[k] = n
		}
		return out
	}
}

// renderAll renders every artifact in fpx-bench all-mode order — the call
// sequence perfbench's paper-repro workload uses.
func renderAll(w io.Writer, s *Sweep) {
	Table4(w, s)
	Figure4(w, s)
	Figure5(w, s)
	Figure6(w, s, s.Plain)
	Table5(w, s)
	Table6(w, s)
	Table7(w)
	Movielens(w, s)
	TwoPhase(w, nil)
	Summary(w, s)
}

// allModeDigest is the SHA-256 of renderAll's output. Simulated results are
// deterministic, so any change to it is a change in what the paper
// artifacts say.
const allModeDigest = "82ca062951d69316059aea98dddb9e91d65f4432fab6307cafc2d26d31cac44d"

// TestAllModeDigest pins the all-mode artifact text.
func TestAllModeDigest(t *testing.T) {
	s := getSweep(t)
	var buf bytes.Buffer
	renderAll(&buf, s)
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != allModeDigest {
		t.Errorf("all-mode artifact digest = %s, want %s (%d bytes):\n%s", got, allModeDigest, buf.Len(), buf.String())
	}
}

// TestPlanRenderMatchesStandalone renders the artifacts with runs outside
// the sweep twice — from the plan, and standalone with a nil sweep and no
// published plan — and requires identical text.
func TestPlanRenderMatchesStandalone(t *testing.T) {
	s := getSweep(t)
	render := func(s *Sweep) string {
		var buf bytes.Buffer
		Table5(&buf, s)
		Table7(&buf)
		Movielens(&buf, s)
		TwoPhase(&buf, nil)
		return buf.String()
	}
	fromPlan := render(s)
	withoutPlan(t)
	if standalone := render(nil); fromPlan != standalone {
		t.Errorf("plan-rendered artifacts differ from standalone rendering:\nplan:\n%s\nstandalone:\n%s", fromPlan, standalone)
	}
}

// TestPlanRunsEachKeyOnce renders the whole evaluation and counts the runs
// behind it: every executed key runs exactly once, including the runs two
// artifacts share (myocyte's stock-device analyzer for Table 7 and the
// Figure 2 workflow, Table 5's k=64 myocyte and Movielens' k=256 run with
// Figure 6). A second regeneration runs them all again: no run is reused
// across evaluations.
func TestPlanRunsEachKeyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("two full evaluations; skipped in -short")
	}
	counts := countRuns(t)
	s := RunSweep()
	renderAll(io.Discard, s)

	myo, err := progs.ByName("myocyte")
	if err != nil {
		t.Fatal(err)
	}
	cumf, err := progs.ByName("CuMF-Movielens")
	if err != nil {
		t.Fatal(err)
	}
	shared := []runKey{
		analyzerKey(myo, Options{}, nil),
		s.plan.canon(myo, keyOf(myo, ToolFPX, Options{FreqRedn: 64})),
		s.plan.canon(cumf, keyOf(cumf, ToolFPX, Options{FreqRedn: 256})),
	}
	first := counts()
	for k, n := range first {
		if n != 1 {
			t.Errorf("%s/%s %s %+v ran %d times in one evaluation", k.suite, k.name, k.tool, k.opt, n)
		}
	}
	for _, k := range shared {
		if first[k] != 1 {
			t.Errorf("shared run %s %s %+v ran %d times, want 1", k.name, k.tool, k.opt, first[k])
		}
	}

	s2 := RunSweep()
	renderAll(io.Discard, s2)
	second := counts()
	for k, n := range first {
		if second[k] != 2*n {
			t.Errorf("%s/%s %s %+v ran %d times over two evaluations, want %d", k.suite, k.name, k.tool, k.opt, second[k], 2*n)
		}
	}
	if len(second) != len(first) {
		t.Errorf("second evaluation ran %d distinct keys, the first %d", len(second), len(first))
	}
}

// TestCoveringWhitelistRule checks the whitelist rule against real runs:
// where the detector flags every kernel the program launches, the screened
// analyzer run equals the unscreened one in cycles, events and flow stats,
// and the plan maps its key to the unscreened key. HPCG flags one of its
// two kernels, so its screened run differs and keeps its own key.
func TestCoveringWhitelistRule(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzer runs of the Figure 2 programs; skipped in -short")
	}
	pl := newPlan()
	for _, tc := range []struct {
		name   string
		covers bool
	}{{"SRU-Example", true}, {"GRAMSCHM", true}, {"myocyte", true}, {"HPCG", false}} {
		p, err := progs.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		det := Run(p, ToolFPX, Options{})
		if len(det.Flagged) == 0 {
			t.Fatalf("%s: detector flagged no kernels", tc.name)
		}
		screenedKey := analyzerKey(p, Options{}, det.Flagged)
		screened := execute(p, screenedKey)
		full := execute(p, analyzerKey(p, Options{}, nil))
		same := screened.Cycles == full.Cycles && screened.Events == full.Events && screened.Flow == full.Flow
		if same != tc.covers {
			t.Errorf("%s: screened %d cycles, %d events, %+v; unscreened %d cycles, %d events, %+v; want equal=%v",
				tc.name, screened.Cycles, screened.Events, screened.Flow, full.Cycles, full.Events, full.Flow, tc.covers)
		}
		if mapped := pl.canon(p, screenedKey) == analyzerKey(p, Options{}, nil); mapped != tc.covers {
			t.Errorf("%s: whitelist %v mapped to the unscreened key = %v, want %v", tc.name, det.Flagged, mapped, tc.covers)
		}
	}
}

// TestPlanConcurrentLookups hammers one plan with concurrent lookups of a
// handful of keys — raw, sampled (clamped) and whitelisted — and requires
// each canonical key to run once and every lookup to match a direct run.
// It is sized for the -short -race CI pass.
func TestPlanConcurrentLookups(t *testing.T) {
	ps := detSubset()[:3]
	var reqs []keyed
	for _, p := range ps {
		reqs = append(reqs,
			keyed{p, keyOf(p, ToolFPX, Options{})},
			keyed{p, keyOf(p, ToolFPX, Options{FreqRedn: 4})},
			keyed{p, keyOf(p, ToolFPX, Options{FreqRedn: 256})},
			keyed{p, keyOf(p, ToolNone, Options{})})
	}
	want := make([]RunResult, len(reqs))
	for i, r := range reqs {
		want[i] = execute(r.p, r.k)
	}
	det := want[0]
	if len(det.Launched) > 0 {
		reqs = append(reqs, keyed{ps[0], analyzerKey(ps[0], Options{}, det.Launched)})
		want = append(want, execute(ps[0], analyzerKey(ps[0], Options{}, nil)))
	}

	counts := countRuns(t)
	pl := newPlan()
	const lookers = 8
	got := make([][]RunResult, lookers)
	var wg sync.WaitGroup
	for g := 0; g < lookers; g++ {
		got[g] = make([]RunResult, len(reqs))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range reqs {
				i := (j + g) % len(reqs)
				got[g][i] = pl.result(reqs[i].p, reqs[i].k)
			}
		}(g)
	}
	wg.Wait()

	for k, n := range counts() {
		if n != 1 {
			t.Errorf("%s %s %+v ran %d times under concurrent lookups", k.name, k.tool, k.opt, n)
		}
	}
	for g := range got {
		for i, r := range got[g] {
			w := want[i]
			if r.Cycles != w.Cycles || r.Summary != w.Summary || r.Events != w.Events || r.Hung != w.Hung {
				t.Errorf("lookup %d of %s %s %+v = %d cycles %v, direct run %d cycles %v",
					g, reqs[i].p.Name, reqs[i].k.tool, reqs[i].k.opt, r.Cycles, r.Summary, w.Cycles, w.Summary)
			}
		}
	}
}
