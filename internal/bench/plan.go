package bench

// The evaluation plan. Every artifact declares the runs it reads as keys;
// one regeneration runs each unique key exactly once, on one worker pool,
// and the artifacts render afterwards from the results. Keys that provably
// execute the same program the same way are mapped to one canonical key
// first, so the dedup is a rule on keys, not special-case copy code.

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"gpufpx/internal/progs"
)

// devProfile selects a run's device cost model.
type devProfile uint8

const (
	// evalDevice is deviceConfig(): the evaluation device of the sweep and
	// every detector artifact.
	evalDevice devProfile = iota
	// stockDevice is device.DefaultConfig(): the analyzer studies (Table 7
	// and the Figure 2 workflow) report cycles on the stock cost model.
	stockDevice
)

// runKey is everything that determines one run's result. Programs are keyed
// by (suite, name): bfs and GEMM each appear in two suites.
type runKey struct {
	suite, name string
	tool        Tool
	opt         Options
	dev         devProfile
	// white is the kernel whitelist, names joined by "\n"; empty means no
	// whitelist (every kernel instrumented).
	white string
}

// keyOf keys a run on the evaluation device without a whitelist.
func keyOf(p progs.Program, tool Tool, opt Options) runKey {
	return runKey{suite: p.Suite, name: p.Name, tool: tool, opt: opt}
}

// analyzerKey keys an analyzer run on the stock device, restricted to the
// given kernels when white is non-empty.
func analyzerKey(p progs.Program, opts Options, white []string) runKey {
	k := keyOf(p, ToolAnalyzer, opts)
	k.dev = stockDevice
	k.white = strings.Join(white, "\n")
	return k
}

// base is k unsampled and unscreened: the run the dedup rules compare
// against. A key that is its own base needs no other result to be
// canonical.
func (k runKey) base() runKey {
	k.white, k.opt.FreqRedn = "", 0
	return k
}

// keyed is one declared run: the program and its key.
type keyed struct {
	p progs.Program
	k runKey
}

// need is one artifact's run declaration: the runs it reads, and the runs
// whose keys follow from their results (nil when there are none).
type need struct {
	runs    []keyed
	derived func(*plan) []keyed
}

// plan is a table of single-flight cells, one per canonical key. Lookups
// of a key the plan lacks run it through the same runner and keep the
// result, so a plan never runs a key twice.
type plan struct {
	mu    sync.Mutex
	cells map[runKey]*cell
}

type cell struct {
	once sync.Once
	res  RunResult
}

func newPlan() *plan { return &plan{cells: make(map[runKey]*cell)} }

// current is the plan of the latest RunSweep — the evaluation that Table7
// and TwoPhase, which take no sweep, read from.
var current atomic.Pointer[plan]

// currentPlan returns the published evaluation, or a fresh plan when no
// RunSweep has published one.
func currentPlan() *plan {
	if pl := current.Load(); pl != nil {
		return pl
	}
	return newPlan()
}

// planOf returns the sweep's plan, or a fresh one for a nil sweep.
func planOf(s *Sweep) *plan {
	if s != nil && s.plan != nil {
		return s.plan
	}
	return newPlan()
}

// result returns the run of key k, executing it on first request;
// concurrent requests for one key wait for the single run. The result's
// FreqRedn is the requested factor even when k maps to a canonical key.
func (pl *plan) result(p progs.Program, k runKey) RunResult {
	ck := pl.canon(p, k)
	pl.mu.Lock()
	c := pl.cells[ck]
	if c == nil {
		c = &cell{}
		pl.cells[ck] = c
	}
	pl.mu.Unlock()
	c.once.Do(func() { c.res = execute(p, ck) })
	r := c.res
	r.FreqRedn = k.opt.FreqRedn
	return r
}

// canon maps k to the canonical key of the run it executes:
//
//   - A whitelist that names every kernel the unscreened run launched
//     instruments exactly what no whitelist would (ShouldInstrument is the
//     only reader of the whitelist): it maps to the unscreened key.
//   - A sampling factor k > 1 instruments the invocations i with
//     i%k == 0, counted per kernel, and a factor of 1 instruments them
//     all. With m the most-launched kernel's count in the unsampled run,
//     every k >= m instruments exactly invocation 0 of each kernel, so
//     those factors clamp to m — and to 0 (full instrumentation) when
//     m <= 1.
//
// Both rules read the run they compare against from the plan, and apply
// only when that run succeeded.
func (pl *plan) canon(p progs.Program, k runKey) runKey {
	if k.white != "" {
		u := k
		u.white = ""
		if r := pl.result(p, u); r.Err == nil && covers(k.white, r.Launched) {
			k = u
		}
	}
	switch f := k.opt.FreqRedn; {
	case f == 1:
		k.opt.FreqRedn = 0
	case f > 1:
		z := k
		z.opt.FreqRedn = 0
		if r := pl.result(p, z); r.Err == nil && f > r.KernelLaunches {
			k.opt.FreqRedn = r.KernelLaunches
			if k.opt.FreqRedn <= 1 {
				k.opt.FreqRedn = 0
			}
		}
	}
	return k
}

// covers reports whether the "\n"-joined whitelist names every kernel.
func covers(white string, kernels []string) bool {
	names := strings.Split(white, "\n")
	for _, k := range kernels {
		if !slices.Contains(names, k) {
			return false
		}
	}
	return true
}

// fill runs every declared run not yet in the plan, in two waves on the
// worker pool. Wave 1 runs the raw keys, plus the unsampled, unscreened
// keys the others compare against. Wave 2 runs the rest — sampled and
// whitelisted keys, and the derived runs — after mapping each to its
// canonical key and dropping duplicates. Wave 1 runs in declaration order.
func (pl *plan) fill(needs ...need) {
	var wave1, later []keyed
	for _, n := range needs {
		for _, r := range n.runs {
			wave1 = append(wave1, keyed{r.p, r.k.base()})
			if r.k != r.k.base() {
				later = append(later, r)
			}
		}
	}
	pl.runAll(wave1)
	for _, n := range needs {
		if n.derived != nil {
			later = append(later, n.derived(pl)...)
		}
	}
	cost := make(map[runKey]uint64, len(later))
	for i := range later {
		r := &later[i]
		r.k = pl.canon(r.p, r.k)
		cost[r.k] = pl.result(r.p, r.k.base()).Cycles
	}
	// Longest first, estimated by the base run's cycles, so the heavy
	// programs' sampled runs do not start last and leave a worker idle.
	slices.SortStableFunc(later, func(a, b keyed) int { return cmp.Compare(cost[b.k], cost[a.k]) })
	pl.runAll(later)
}

// runAll runs the distinct keys of rs over the worker pool.
func (pl *plan) runAll(rs []keyed) {
	seen := make(map[runKey]bool, len(rs))
	uniq := rs[:0:0]
	for _, r := range rs {
		if !seen[r.k] {
			seen[r.k] = true
			uniq = append(uniq, r)
		}
	}
	forEach(len(uniq), func(i int) { pl.result(uniq[i].p, uniq[i].k) })
}
