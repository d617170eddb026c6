package device

// InjectTable is a launch's injected calls pre-split by instruction PC and
// phase — the cacheable form of the map[int][]InjectedCall a tool's
// Instrument returns. Building the table once per instrumented kernel and
// attaching it to every launch replaces the per-launch map rebuild and the
// per-launch before/after split that previously dominated launch-heavy
// programs' allocation profiles. A table attached to a launch is read-only:
// the same table may back any number of concurrent launches.
type InjectTable struct {
	before, after [][]InjectedCall
	n             int
}

// NewInjectTable returns an empty table pre-sized for a kernel of n
// instructions.
func NewInjectTable(n int) *InjectTable {
	return &InjectTable{
		before: make([][]InjectedCall, n),
		after:  make([][]InjectedCall, n),
	}
}

// BuildInjectTable splits an Instrument result into a table for a kernel of
// n instructions. Calls at PCs outside [0, n) are dropped, matching the
// launch path's handling of the raw map.
func BuildInjectTable(n int, inj map[int][]InjectedCall) *InjectTable {
	t := NewInjectTable(n)
	for pc, calls := range inj {
		if pc < 0 || pc >= n {
			continue
		}
		for _, c := range calls {
			t.Add(pc, c)
		}
	}
	return t
}

// Add appends one call. The table grows to cover the PC if needed; negative
// PCs are dropped.
func (t *InjectTable) Add(pc int, c InjectedCall) {
	if pc < 0 {
		return
	}
	if pc >= len(t.before) {
		nb := make([][]InjectedCall, pc+1)
		copy(nb, t.before)
		na := make([][]InjectedCall, pc+1)
		copy(na, t.after)
		t.before, t.after = nb, na
	}
	if c.When == Before {
		t.before[pc] = append(t.before[pc], c)
	} else {
		t.after[pc] = append(t.after[pc], c)
	}
	t.n++
}

// AddMap folds an Instrument result into the table, preserving each PC's
// call order.
func (t *InjectTable) AddMap(inj map[int][]InjectedCall) {
	for pc, calls := range inj {
		for _, c := range calls {
			t.Add(pc, c)
		}
	}
}

// Empty reports whether the table holds no calls.
func (t *InjectTable) Empty() bool { return t == nil || t.n == 0 }

// Clone returns a deep copy whose per-PC call slices are independently
// appendable — the copy-on-write step for a borrowed table.
func (t *InjectTable) Clone() *InjectTable {
	c := &InjectTable{
		before: make([][]InjectedCall, len(t.before)),
		after:  make([][]InjectedCall, len(t.after)),
		n:      t.n,
	}
	for pc, calls := range t.before {
		if len(calls) > 0 {
			c.before[pc] = append([]InjectedCall(nil), calls...)
		}
	}
	for pc, calls := range t.after {
		if len(calls) > 0 {
			c.after[pc] = append([]InjectedCall(nil), calls...)
		}
	}
	return c
}

// Merge appends every call of o. The receiver must be an owned (cloned or
// freshly built) table.
func (t *InjectTable) Merge(o *InjectTable) {
	if o == nil {
		return
	}
	for pc, calls := range o.before {
		for _, c := range calls {
			t.Add(pc, c)
		}
	}
	for pc, calls := range o.after {
		for _, c := range calls {
			t.Add(pc, c)
		}
	}
}

// split returns the phase slices with length at least n, copying the headers
// only when the table is shorter than the kernel.
func (t *InjectTable) split(n int) (before, after [][]InjectedCall) {
	if len(t.before) >= n {
		return t.before, t.after
	}
	before = make([][]InjectedCall, n)
	copy(before, t.before)
	after = make([][]InjectedCall, n)
	copy(after, t.after)
	return before, after
}
