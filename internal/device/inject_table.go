package device

// InjectTable is a launch's injected calls split by instruction PC and
// phase — the only form in which calls reach a launch. Tools build one per
// instrumented kernel (BuildInjectTable over what Instrument returns) and
// attach it to every launch of that kernel. A table attached to a launch is
// read-only: the same table may back any number of concurrent launches.
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
// n instructions. Calls at PCs outside [0, n) are dropped.
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

// Empty reports whether the table holds no calls.
func (t *InjectTable) Empty() bool { return t == nil || t.n == 0 }

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
