package device

import (
	"sync/atomic"

	"gpufpx/internal/sass"
)

// The fusion pass builds the third execution tier above interp and lowered:
// maximal straight-line runs of @PT non-control instructions become fused
// regions. A region's body is one flat list of its sites' thunks, as
// lowerInstr (lower_ops.go) built them, less the no-op sites (discardsAll),
// so one region dispatch replaces per-instruction stepping: budget,
// cancellation and statistics are accounted once in bulk, the thunks run
// with no dispatch between them, and a trailing compare-and-branch is
// folded into the region as a fused tail. A region whose body holds
// injected calls is stepped one instruction at a time instead (see
// executor.stepRegion).
//
// Regions are split at branch-target leaders so every jump lands either on
// a region head (fast dispatch) or on an un-fused PC (ordinary stepping);
// entering a region mid-body is impossible by construction.
//
// A kernel is fused once, on first use, and every launch dispatches that
// same program.

// fusedRegion is one fused superinstruction.
type fusedRegion struct {
	start, end int // body PC range [start, end)
	// total is the dynamic instruction count per execution (body + tail),
	// cost the summed cycle cost and fp the FP instruction count of the
	// body — accounted in bulk by stepRegion.
	total, cost, fp uint64
	// fns are the body's thunks in PC order; no-op sites contribute none.
	fns []thunk
	// tail describes a fused trailing BRA (the compare-and-branch pattern).
	tail       bool
	tailPred   int    // guard predicate (PT when unguarded)
	tailNeg    uint32 // all ones for a negated guard
	tailTarget int
	tailCost   uint64
}

// fusedKernel is the fused program for one kernel.
type fusedKernel struct {
	regions []fusedRegion
	// regionAt maps a PC to the region starting there (-1 elsewhere), and
	// regionOf a PC to the region whose body covers it (-1 outside region
	// bodies), so an instrumented launch marks dirty regions from its call
	// PCs.
	regionAt, regionOf []int32
	// per-program fusion statistics.
	seqs, fusedInstrs uint64
}

// fuseKernel builds the fused program.
func fuseKernel(k *sass.Kernel, m *kernelMeta, lk *loweredKernel) *fusedKernel {
	n := len(k.Instrs)
	fk := &fusedKernel{regionAt: make([]int32, n), regionOf: make([]int32, n)}
	for i := range fk.regionAt {
		fk.regionAt[i], fk.regionOf[i] = -1, -1
	}
	// Branch targets are leaders: a region never spans one, so jumping into
	// the middle of a fused body is impossible.
	leader := make([]bool, n)
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		if in.Op == sass.OpBRA {
			if t := int(in.Operands[0].IVal); t >= 0 && t < n {
				leader[t] = true
			}
		}
	}
	fusable := func(pc int) bool {
		if !m.guardPT[pc] {
			return false
		}
		switch k.Instrs[pc].Op {
		case sass.OpBRA, sass.OpEXIT, sass.OpBAR:
			return false
		}
		return true
	}

	pc := 0
	for pc < n {
		if !fusable(pc) {
			pc++
			continue
		}
		start := pc
		end := pc + 1
		for end < n && !leader[end] && fusable(end) {
			end++
		}
		pc = end
		// A trailing BRA fuses into the region: its guard is evaluated from
		// the predicates the body just wrote (FSETP+BRA compare-and-branch).
		hasTail := end < n && k.Instrs[end].Op == sass.OpBRA
		if end-start < 2 && !hasTail {
			continue
		}

		ri := int32(len(fk.regions))
		r := fusedRegion{start: start, end: end, total: uint64(end - start)}
		for bp := start; bp < end; bp++ {
			fk.regionOf[bp] = ri
			r.cost += m.cost[bp]
			if m.isFP[bp] {
				r.fp++
			}
			if !discardsAll(&k.Instrs[bp]) {
				r.fns = append(r.fns, lk.thunks[bp])
			}
		}
		if hasTail {
			in := &k.Instrs[end]
			r.tail = true
			r.tailPred, r.tailNeg = in.Guard, negMask(in.GuardNeg)
			r.tailTarget = int(in.Operands[0].IVal)
			r.tailCost = m.cost[end]
			r.total++
		}
		fk.seqs++
		fk.fusedInstrs += r.total
		fk.regionAt[start] = ri
		fk.regions = append(fk.regions, r)
	}
	return fk
}

// ---- fusion counters ----

var (
	fuseKernelsN atomic.Uint64
	fuseRegionsN atomic.Uint64
	fuseInstrsN  atomic.Uint64
)

// FuseStats is a snapshot of the process-wide fusion counters.
type FuseStats struct {
	// Kernels counts distinct kernels with a fused program.
	Kernels uint64
	// Regions counts fused superinstruction sequences across those kernels.
	Regions uint64
	// FusedInstrs counts instruction sites covered by fused regions
	// (including fused branch tails); FusedInstrs / LowerStats.Instrs is
	// the fused-site coverage ratio.
	FusedInstrs uint64
	// HotHits is always zero. It is kept only because the repository
	// benchmark (perfbench) still reads it; drop it with that reader.
	HotHits uint64
}

// FuseStatsSnapshot returns the current fusion counters.
func FuseStatsSnapshot() FuseStats {
	return FuseStats{
		Kernels:     fuseKernelsN.Load(),
		Regions:     fuseRegionsN.Load(),
		FusedInstrs: fuseInstrsN.Load(),
	}
}
