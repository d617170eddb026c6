package device

// Per-launch scratch pooling. A launch-heavy workload (the service's batch
// path runs thousands of launches per request) used to allocate a handful
// of slices on every Launch call: the warp pointer table, the shared-memory
// block, the fused tier's chain prefetch buffer and its clean-region marks,
// and — on the cuda side — the copy-on-write InjectTable clone. None of
// them outlive the launch, so they all come from sync.Pools now and go back
// when the launch returns. The panic path deliberately skips the return: a
// launch that died mid-flight may leave scratch in an unknown state, and
// losing one pooled buffer is cheaper than recycling a corrupt one.

import "sync"

// launchScratch bundles every per-launch slice Launch needs, so one pool
// Get/Put covers them all.
type launchScratch struct {
	warps       []*Warp
	shared      []byte
	uniBuf      []uint32
	regionClean []bool
	segClean    []bool
}

var scratchPool = sync.Pool{New: func() any { return &launchScratch{} }}

func getScratch() *launchScratch { return scratchPool.Get().(*launchScratch) }

// release clears held references and returns the scratch to the pool. The
// slice capacities are kept; the warp pointers are dropped so a pooled
// scratch never pins dead register files.
func (s *launchScratch) release() {
	for i := range s.warps {
		s.warps[i] = nil
	}
	s.warps = s.warps[:0]
	scratchPool.Put(s)
}

// growPtrs returns s with length n, reusing capacity.
func growPtrs(s []*Warp, n int) []*Warp {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]*Warp, n)
}

// growBytes returns s zeroed with length n, reusing capacity.
func growBytes(s []byte, n int) []byte {
	if cap(s) < n {
		return make([]byte, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// growU32 returns s zeroed with length n, reusing capacity.
func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// growBools returns s zeroed with length n, reusing capacity.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// injectTablePool recycles the copy-on-write InjectTable clones the cuda
// launch path makes when a second table is attached to a launch.
var injectTablePool = sync.Pool{New: func() any { return &InjectTable{} }}

// ClonePooled returns a deep copy whose per-PC call slices are
// independently appendable, drawing its table and slices from a pool. Pair
// it with Release once the launch it was built for has finished.
func (t *InjectTable) ClonePooled() *InjectTable {
	c := injectTablePool.Get().(*InjectTable)
	c.n = t.n
	c.before = fillPhase(c.before, t.before)
	c.after = fillPhase(c.after, t.after)
	return c
}

// fillPhase deep-copies src's per-PC call slices into dst, reusing dst's
// capacities.
func fillPhase(dst, src [][]InjectedCall) [][]InjectedCall {
	if cap(dst) >= len(src) {
		dst = dst[:len(src)]
	} else {
		dst = make([][]InjectedCall, len(src))
	}
	for pc := range dst {
		dst[pc] = append(dst[pc][:0], src[pc]...)
	}
	return dst
}

// Release resets the table and returns it to the pool. Only tables the
// caller owns (ClonePooled or NewInjectTable results that never escaped)
// may be released; a borrowed, cached table must never come here. Call
// slots are zeroed so pooled memory does not pin tool closures across
// launches.
func (t *InjectTable) Release() {
	if t == nil {
		return
	}
	clearPhase(t.before)
	clearPhase(t.after)
	t.n = 0
	injectTablePool.Put(t)
}

func clearPhase(phase [][]InjectedCall) {
	for pc := range phase {
		calls := phase[pc]
		for i := range calls {
			calls[i] = InjectedCall{}
		}
		phase[pc] = calls[:0]
	}
}
