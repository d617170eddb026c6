package device

import (
	"sync"
	"sync/atomic"

	"gpufpx/internal/sass"
)

// The fusion pass builds the third execution tier above interp and lowered:
// maximal straight-line runs of @PT non-control instructions become fused
// regions. One region dispatch replaces per-instruction stepping — budget,
// cancellation and statistics are accounted once in bulk, lane-local
// instruction runs execute as chains of compiled micro-op closures
// (fuse_ops.go), and a trailing compare-and-branch is folded into the region
// as a fused tail.
//
// Regions are split at branch-target leaders so every jump lands either on
// a region head (fast dispatch) or on an un-fused PC (ordinary stepping);
// entering a region mid-body is impossible by construction.
//
// A kernel is fused once, on first use, and every launch dispatches that
// same program.

// fusedSeg is one segment of a region body: either a fused chain or a
// single lowered thunk. Segment PC ranges tile the body in order.
type fusedSeg struct {
	start, end int
	ch         *chain // nil → thunk segment
	th         thunk
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
	tailPred   int // guard predicate (-1 for @PT)
	tailNeg    bool
	tailTarget int
	tailCost   uint64
}

// fusedKernel is the fused program for one kernel.
type fusedKernel struct {
	regions []fusedRegion
	// regionAt maps a PC to the region starting there (-1 elsewhere).
	regionAt []int32
	// maxUni is the largest chain prefetch buffer the executor must hold.
	maxUni int
	// nsegs is the total segment count across regions.
	nsegs int
	// per-program fusion statistics.
	seqs, fusedInstrs, chainOps uint64
}

// fuseKernel builds the fused program.
func fuseKernel(k *sass.Kernel, m *kernelMeta, lk *loweredKernel) *fusedKernel {
	n := len(k.Instrs)
	fk := &fusedKernel{regionAt: make([]int32, n)}
	for i := range fk.regionAt {
		fk.regionAt[i] = -1
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

		r := fusedRegion{start: start, end: end, tailPred: -1}
		var curCB *chainBuilder
		chainStart := start
		flush := func(endPC int) {
			if curCB == nil {
				return
			}
			seg := fusedSeg{start: chainStart, end: endPC}
			if len(curCB.mops) > 0 {
				seg.ch = newChain(curCB.mops, curCB.pre)
				if len(curCB.pre) > fk.maxUni {
					fk.maxUni = len(curCB.pre)
				}
				fk.chainOps += uint64(len(curCB.mops))
			} else {
				// Every mop wrote only PT; keep the range covered for the
				// instrumented slow path.
				seg.th = nopThunk
			}
			r.segs = append(r.segs, seg)
			curCB = nil
		}
		for bp := start; bp < end; bp++ {
			in := &k.Instrs[bp]
			switch classifyFuse(in, m, lk, bp) {
			case fuseSkip:
				// An open chain simply extends over the no-op; otherwise the
				// PC still needs a segment so injected calls there run.
				if curCB == nil {
					r.segs = append(r.segs, fusedSeg{start: bp, end: bp + 1, th: nopThunk})
				}
			case fuseChain:
				if curCB == nil {
					curCB = &chainBuilder{}
					chainStart = bp
				}
				curCB.buildMop(in, m, bp)
			default:
				flush(bp)
				r.segs = append(r.segs, fusedSeg{start: bp, end: bp + 1, th: lk.thunks[bp]})
			}
		}
		flush(end)

		for si := range r.segs {
			s := &r.segs[si]
			for bp := s.start; bp < s.end; bp++ {
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
			if !m.guardPT[end] {
				r.tailPred = in.Guard
				r.tailNeg = in.GuardNeg
			}
			r.tailTarget = int(in.Operands[0].IVal)
			r.tailCost = m.cost[end]
			r.total++
		}
		r.segBase = fk.nsegs
		fk.nsegs += len(r.segs)
		fk.seqs++
		fk.fusedInstrs += r.total
		fk.regionAt[start] = int32(len(fk.regions))
		fk.regions = append(fk.regions, r)
	}
	return fk
}

// ---- fusion cache and counters ----

// fuseCache maps *sass.Kernel → *fusedKernel, with the same lifetime
// contract as lowerCache: kernels are immutable and process-shared.
var fuseCache sync.Map

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
	// ChainOps counts fused chain micro-ops compiled.
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

// fuseFor returns the shared fused program for a kernel (nil for kernels
// that fail static validation — those never launch anyway).
func fuseFor(k *sass.Kernel) *fusedKernel {
	if v, ok := fuseCache.Load(k); ok {
		return v.(*fusedKernel)
	}
	m := metaFor(k)
	if m.verr != nil {
		return nil
	}
	fk := fuseKernel(k, m, lowerFor(k))
	v, loaded := fuseCache.LoadOrStore(k, fk)
	if !loaded {
		fuseKernelsN.Add(1)
		fuseRegionsN.Add(fk.seqs)
		fuseInstrsN.Add(fk.fusedInstrs)
		fuseChainOpsN.Add(fk.chainOps)
	}
	return v.(*fusedKernel)
}
