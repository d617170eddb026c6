package main

// paper-repro: regenerate every table and figure in-process, one op at a
// time — the fpx-bench all-mode artifact set. The executor dominates it
// (device stepping is most of a CPU profile), so executor-tier changes show
// here and parse or serve changes do not.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"gpufpx/internal/bench"
	"gpufpx/internal/cc"
	"gpufpx/internal/progs"
)

// The paper-repro invariants: total simulated cycles of the corpus sweep
// and its hang count (BinFPE and the w/o-GT detector phase each hang once).
const (
	wantSweepCycles = 6573844076
	wantHangs       = 2
)

// paperOut is what one regeneration produced.
type paperOut struct {
	cycles uint64
	hangs  int
	digest [32]byte
	err    error
	// sweepWall and sweepCPU time bench.RunSweep alone; figure6, twophase
	// and other time the remaining artifact calls.
	sweepWall, sweepCPU      time.Duration
	figure6, twophase, other time.Duration
}

// checkPaper compares one regeneration against the invariants and the
// run's reference digest (nil ref: the first op sets it).
func checkPaper(o paperOut, ref *[32]byte) error {
	switch {
	case o.err != nil:
		return fmt.Errorf("sweep failed: %v", o.err)
	case o.cycles != wantSweepCycles:
		return fmt.Errorf("sweep_total_cycles %d, want %d", o.cycles, wantSweepCycles)
	case o.hangs != wantHangs:
		return fmt.Errorf("hangs %d, want %d", o.hangs, wantHangs)
	case ref != nil && o.digest != *ref:
		return fmt.Errorf("artifact digest %x differs from the first regeneration's %x", o.digest[:8], ref[:8])
	}
	return nil
}

// regenerate renders every artifact into w in fpx-bench all-mode order,
// with spans around the bench entry points when tr is non-nil.
func regenerate(w io.Writer, tr *tracer, parent, op int) paperOut {
	var out paperOut
	id := tr.start("bench.sweep", parent, op, 0)
	cpu0, t0 := cpuTime(), time.Now()
	s := bench.RunSweep()
	out.sweepWall, out.sweepCPU = time.Since(t0), cpuTime()-cpu0
	tr.end(id)
	out.err = s.Err()
	out.cycles, out.hangs = s.TotalCycles(), s.Hangs()

	timed := func(name string, into *time.Duration, fn func()) {
		id := tr.start(name, parent, op, 0)
		t0 := time.Now()
		fn()
		*into += time.Since(t0)
		tr.end(id)
	}
	timed("bench.other_artifacts", &out.other, func() { bench.Table4(w, s); bench.Figure4(w, s); bench.Figure5(w, s) })
	timed("bench.figure6", &out.figure6, func() { bench.Figure6(w, s, s.Plain) })
	timed("bench.other_artifacts", &out.other, func() {
		bench.Table5(w, s)
		bench.Table6(w, s)
		bench.Table7(w)
		bench.Movielens(w, s)
	})
	timed("bench.twophase", &out.twophase, func() { bench.TwoPhase(w, nil) })
	timed("bench.other_artifacts", &out.other, func() { bench.Summary(w, s) })
	return out
}

// paperSetup starts from an empty compile cache and compiles, decodes,
// lowers and fuses the corpus under both compiler configurations the
// artifacts use (precise and fast-math), fanned over GOMAXPROCS workers.
func paperSetup() error {
	cc.ResetCache()
	ps := progs.All()
	opts := []bench.Options{{}, {Compiler: cc.Options{FastMath: true}}}
	errs := make([]error, len(ps)*len(opts))
	parallelFor(len(errs), func(i int) {
		if r := bench.Run(ps[i/len(opts)], bench.ToolNone, opts[i%len(opts)]); r.Err != nil {
			errs[i] = fmt.Errorf("%s: %w", r.Program.Name, r.Err)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	cc.WaitBackground()
	return nil
}

func runPaper(r *run) error {
	setups, err := setupN(r, 3, paperSetup)
	if err != nil {
		return err
	}
	var ref *[32]byte
	win := func(d time.Duration, tr *tracer) (phase, float64, error) {
		return sequentialWindow(d, tr, func(i int, tr *tracer) (float64, error) {
			var buf bytes.Buffer
			id := tr.start("paper-repro.op", 0, i, 0)
			o := regenerate(&buf, tr, id, i)
			tr.end(id)
			o.digest = sha256.Sum256(buf.Bytes())
			if err := checkPaper(o, ref); err != nil {
				r.count(fmt.Errorf("paper-repro op %d: %w", i, err))
			} else {
				r.count(nil)
			}
			if ref == nil {
				ref = &o.digest
				fmt.Printf("paper-repro: artifact digest %x (%d bytes)\n", o.digest, buf.Len())
			}
			return 1, nil
		})
	}
	return r.measure(setups, win)
}
