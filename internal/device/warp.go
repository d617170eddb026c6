package device

import (
	"sync"

	"gpufpx/internal/sass"
)

// warpStructPool recycles Warp structs between launches; see newWarp.
var warpStructPool = sync.Pool{New: func() any { return new(Warp) }}

// Warp is the execution state of one 32-lane warp.
type Warp struct {
	// ID is the global warp index within the launch.
	ID int
	// Block is the block index, WarpInBlock the warp index within it.
	Block, WarpInBlock int

	pc     int
	active uint32 // lanes executing the current path
	exited uint32 // lanes that have run EXIT
	// initialActive is the launch-time active mask, restored by reset.
	initialActive uint32

	// regs[lane][reg] is the per-lane general-purpose register file; the
	// lane slices share one backing array. A fixed-size array of slices
	// (rather than a slice of slices) keeps lane indexing free of a bounds
	// check and pointer hop in the executor hot path.
	regs [WarpSize][]uint32
	// backing is the contiguous register storage behind regs, kept so
	// reset can zero it in one pass. It is laid out lane-major with stride
	// registers per lane; the specialized thunks' column loops (laneCol,
	// lower_ops.go) index it directly so one lane's whole working set sits
	// on adjacent cache lines.
	backing []uint32
	// backingBox is the pooled box backing travels in; release hands the
	// same box back so no slice header is re-heaped per launch.
	backingBox *[]uint32
	stride     int
	// pmask[p] holds predicate register Pp for the whole warp, bit l for
	// lane l: a SETP computes one 32-bit result and a guard is one AND.
	// pmask[PT] is all ones and never written, so PT reads as true.
	pmask [sass.NumPredRegs]uint32

	// splits is the divergence stack: paths deferred at divergent
	// branches, resumed when the current path exits or re-stalls.
	splits []split

	// barGroups collects lane groups parked at a BAR.SYNC, each with its
	// own resume PC (divergent paths may wait at different barrier
	// instructions). The warp is only "at the barrier" once every live
	// path has arrived — CUDA requires all threads of the block to reach
	// a barrier before any proceeds.
	barGroups []split
	atBarrier bool
}

type split struct {
	pc   int
	mask uint32
}

func newWarp(id, block, warpInBlock, numRegs int, activeLanes int) *Warp {
	// The struct itself is pooled alongside its register backing: a
	// launch-heavy workload builds warpsPerBlock of these per launch, and
	// release() returns them.
	w := warpStructPool.Get().(*Warp)
	w.ID, w.Block, w.WarpInBlock = id, block, warpInBlock
	w.pc, w.exited, w.atBarrier = 0, 0, false
	w.splits = w.splits[:0]
	w.barGroups = w.barGroups[:0]
	w.pmask = ptOnly
	if numRegs < 1 {
		numRegs = 1
	}
	w.backingBox = newRegs(WarpSize * numRegs)
	w.backing = *w.backingBox
	w.stride = numRegs
	for l := 0; l < WarpSize; l++ {
		w.regs[l] = w.backing[l*numRegs : (l+1)*numRegs]
	}
	if activeLanes >= WarpSize {
		w.active = ^uint32(0)
	} else {
		w.active = uint32(1)<<uint(activeLanes) - 1
	}
	w.initialActive = w.active
	return w
}

// release returns the warp's register backing to the shared pool. The warp
// must not execute afterwards; Launch calls this once a launch's blocks are
// done with it.
func (w *Warp) release() {
	if w.backing == nil {
		return
	}
	putRegs(w.backingBox)
	w.backingBox = nil
	w.backing = nil
	for l := range w.regs {
		w.regs[l] = nil
	}
	warpStructPool.Put(w)
}

// reset returns the warp to its launch state for the next block, zeroing
// registers and predicates in place instead of reallocating.
func (w *Warp) reset(id, block, warpInBlock int) {
	w.ID = id
	w.Block = block
	w.WarpInBlock = warpInBlock
	w.pc = 0
	w.active = w.initialActive
	w.exited = 0
	w.splits = w.splits[:0]
	w.barGroups = w.barGroups[:0]
	w.atBarrier = false
	for i := range w.backing {
		w.backing[i] = 0
	}
	w.pmask = ptOnly
}

// ptOnly is the launch-time predicate file: P0..P6 false, PT true.
var ptOnly = [sass.NumPredRegs]uint32{sass.PT: ^uint32(0)}

// PC returns the warp's current program counter (instruction index).
func (w *Warp) PC() int { return w.pc }

// ActiveMask returns the mask of lanes executing the current path.
func (w *Warp) ActiveMask() uint32 { return w.active }

// LeaderLane returns the lowest active lane — "the leading thread in the
// warp" that Algorithm 2 broadcasts to. It returns -1 when no lane is
// active.
func (w *Warp) LeaderLane() int {
	if w.active == 0 {
		return -1
	}
	for l := 0; l < WarpSize; l++ {
		if w.active&(1<<uint(l)) != 0 {
			return l
		}
	}
	return -1
}

// Reg reads a general-purpose register of a lane; RZ reads as zero.
func (w *Warp) Reg(lane, r int) uint32 {
	if r == sass.RZ {
		return 0
	}
	return w.regs[lane][r]
}

// SetReg writes a general-purpose register of a lane; writes to RZ are
// discarded.
func (w *Warp) SetReg(lane, r int, v uint32) {
	if r == sass.RZ {
		return
	}
	w.regs[lane][r] = v
}

// Pred reads a predicate register of a lane; PT reads as true.
func (w *Warp) Pred(lane, p int) bool {
	return w.pmask[p]>>uint(lane)&1 != 0
}

// SetPred writes a predicate register of a lane; writes to PT are discarded.
func (w *Warp) SetPred(lane, p int, v bool) {
	if p == sass.PT {
		return
	}
	if v {
		w.pmask[p] |= 1 << uint(lane)
	} else {
		w.pmask[p] &^= 1 << uint(lane)
	}
}

// writePred sets predicate p to v on the lanes of exec; the other lanes
// keep theirs. p is never PT.
func (w *Warp) writePred(p int32, exec, v uint32) { w.pmask[p] = w.pmask[p]&^exec | v&exec }

// done reports whether every lane has exited and no split or parked
// barrier path remains.
func (w *Warp) done() bool {
	return w.active == 0 && len(w.splits) == 0 && len(w.barGroups) == 0
}

// retire removes the given lanes from the current path; when the path
// empties, the next split resumes.
func (w *Warp) retire(mask uint32) {
	w.exited |= mask
	w.active &^= mask
	w.popIfEmpty()
}

func (w *Warp) popIfEmpty() {
	for w.active == 0 && len(w.splits) > 0 {
		top := w.splits[len(w.splits)-1]
		w.splits = w.splits[:len(w.splits)-1]
		w.active = top.mask &^ w.exited
		w.pc = top.pc
	}
}

// diverge handles a branch where taken lanes differ from the current active
// set: the fall-through lanes are pushed as a split and the taken lanes
// continue at target.
func (w *Warp) diverge(taken uint32, target int) {
	fallthru := w.active &^ taken
	if fallthru != 0 {
		w.splits = append(w.splits, split{pc: w.pc + 1, mask: fallthru})
	}
	w.active = taken
	w.pc = target
}

// parkAtBarrier removes the given lanes from execution until the block-wide
// barrier releases; remaining divergent paths keep running. The warp counts
// as arrived only when no path remains live.
func (w *Warp) parkAtBarrier(mask uint32, resumePC int) {
	w.barGroups = append(w.barGroups, split{pc: resumePC, mask: mask})
	w.active &^= mask
	w.popIfEmpty()
	if w.active == 0 && len(w.splits) == 0 && len(w.barGroups) > 0 {
		w.atBarrier = true
	}
}

// releaseBarrier resumes the parked groups, each at its own PC: they become
// ordinary divergent paths again.
func (w *Warp) releaseBarrier() {
	w.atBarrier = false
	if len(w.barGroups) == 0 {
		return
	}
	w.splits = append(w.splits, w.barGroups...)
	w.barGroups = w.barGroups[:0]
	w.popIfEmpty()
}
