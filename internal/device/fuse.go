package device

import (
	"sync/atomic"

	"gpufpx/internal/sass"
)

// The fusion pass builds the third execution tier above interp and lowered:
// maximal straight-line runs of @PT non-control instructions become fused
// regions. One region dispatch replaces per-instruction stepping — budget,
// cancellation and statistics are accounted once in bulk, runs of chainable
// lane-local sites execute as chains, the run of those sites' mop closures
// (fuse_ops.go) with no dispatch between them, and a trailing
// compare-and-branch is folded into the region as a fused tail.
//
// Regions are split at branch-target leaders so every jump lands either on
// a region head (fast dispatch) or on an un-fused PC (ordinary stepping);
// entering a region mid-body is impossible by construction.
//
// A kernel is fused once, on first use, and every launch dispatches that
// same program.

// fusedSeg is one segment of a region body: either a fused chain or a
// single non-chainable site. Segment PC ranges tile the body in order.
type fusedSeg struct {
	start, end int
	// fns are the segment's thunks in PC order: a chain's mop closures, or
	// the one non-chainable site's thunk. No-op sites contribute none.
	fns []thunk
	// cost and fp are the summed cycle cost and FP instruction count of
	// the segment's PC range, so runRegionSlow settles a call-free
	// segment's statistics in O(1) instead of per instruction.
	cost, fp uint64
}

// fusedRegion is one fused superinstruction.
type fusedRegion struct {
	start, end int // body PC range [start, end)
	// total is the dynamic instruction count per execution (body + tail),
	// cost the summed cycle cost and fp the FP instruction count of the
	// body — accounted in bulk by stepRegion.
	total, cost, fp uint64
	// segBase indexes this region's first segment in the launch-wide
	// per-segment call tables.
	segBase int
	segs    []fusedSeg
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
	// regionAt maps a PC to the region starting there (-1 elsewhere).
	regionAt []int32
	// nsegs is the total segment count across regions.
	nsegs int
	// segAt maps a PC to the launch-wide index of the segment covering it
	// (-1 outside region bodies) and segRegion a segment to its region,
	// so an instrumented launch marks dirty segments from its call PCs.
	segAt     []int32
	segRegion []int32
	// per-program fusion statistics.
	seqs, fusedInstrs, chainOps uint64
}

// fuseKernel builds the fused program.
func fuseKernel(k *sass.Kernel, m *kernelMeta, lk *loweredKernel) *fusedKernel {
	n := len(k.Instrs)
	fk := &fusedKernel{regionAt: make([]int32, n), segAt: make([]int32, n)}
	for i := range fk.regionAt {
		fk.regionAt[i], fk.segAt[i] = -1, -1
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

		r := fusedRegion{start: start, end: end}
		chainStart := -1 // open chain's first PC, or -1
		flush := func(endPC int) {
			if chainStart < 0 {
				return
			}
			seg := fusedSeg{start: chainStart, end: endPC}
			for bp := chainStart; bp < endPC; bp++ {
				if lk.class[bp] == lowClassChain {
					seg.fns = append(seg.fns, lk.thunks[bp])
				}
			}
			fk.chainOps += uint64(len(seg.fns))
			r.segs = append(r.segs, seg)
			chainStart = -1
		}
		for bp := start; bp < end; bp++ {
			switch {
			case k.Instrs[bp].Op == sass.OpNOP || lk.class[bp] == lowClassNop:
				// An open chain simply extends over the no-op; otherwise the
				// PC still needs a segment so injected calls there run.
				if chainStart < 0 {
					r.segs = append(r.segs, fusedSeg{start: bp, end: bp + 1})
				}
			case lk.class[bp] == lowClassChain:
				if chainStart < 0 {
					chainStart = bp
				}
			default:
				flush(bp)
				r.segs = append(r.segs, fusedSeg{start: bp, end: bp + 1, fns: lk.thunks[bp : bp+1 : bp+1]})
			}
		}
		flush(end)

		r.segBase = fk.nsegs
		for si := range r.segs {
			s := &r.segs[si]
			fk.segRegion = append(fk.segRegion, int32(len(fk.regions)))
			for bp := s.start; bp < s.end; bp++ {
				fk.segAt[bp] = int32(r.segBase + si)
				s.cost += m.cost[bp]
				if m.isFP[bp] {
					s.fp++
				}
			}
		}
		for bp := start; bp < end; bp++ {
			r.cost += m.cost[bp]
			if m.isFP[bp] {
				r.fp++
			}
		}
		r.total = uint64(end - start)
		if hasTail {
			in := &k.Instrs[end]
			r.tail = true
			r.tailPred, r.tailNeg = in.Guard, negMask(in.GuardNeg)
			r.tailTarget = int(in.Operands[0].IVal)
			r.tailCost = m.cost[end]
			r.total++
		}
		fk.nsegs += len(r.segs)
		fk.seqs++
		fk.fusedInstrs += r.total
		fk.regionAt[start] = int32(len(fk.regions))
		fk.regions = append(fk.regions, r)
	}
	return fk
}

// ---- fusion counters ----

var (
	fuseKernelsN  atomic.Uint64
	fuseRegionsN  atomic.Uint64
	fuseInstrsN   atomic.Uint64
	fuseChainOpsN atomic.Uint64
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
	// ChainOps counts the mop closures that fused chains run.
	ChainOps uint64
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
		ChainOps:    fuseChainOpsN.Load(),
	}
}
