// Package cuda is the driver-API layer of the simulator: modules hold
// kernels, a Context owns a device and launches kernels on it, and —
// crucially for binary instrumentation — every launch flows through
// registered interceptors before it reaches the device. Interception is the
// stand-in for the LD_PRELOAD mechanism of Figure 1 in the paper: an NVBit
// tool's shared library loads first and wraps the CUDA driver entry points.
package cuda

import (
	"fmt"
	"sort"

	"gpufpx/internal/device"
	"gpufpx/internal/sass"
)

// LaunchEvent is a kernel launch as seen by interceptors, before it reaches
// the device. Interceptors may attach injected calls and charge host-side
// cycles (JIT compilation).
type LaunchEvent struct {
	Ctx    *Context
	Kernel *sass.Kernel
	// Invocation is the 0-based count of launches of this kernel so far
	// (the num[current_kernel] counter of Algorithm 3).
	Invocation int

	GridDim, BlockDim int
	Params            []uint32

	// Inject is the injected-call table the launch will run with.
	Inject map[int][]device.InjectedCall
	// HostCycles accumulates host-side work (JIT) charged for this launch.
	HostCycles uint64

	// injectTab is the pre-split call table attached by AttachTable. It is
	// borrowed from the attaching interceptor's cache until a mutation
	// (another table, or an AddCall) forces a private copy.
	injectTab   *device.InjectTable
	injectOwned bool
}

// AddCall appends an injected call at the given instruction PC.
func (ev *LaunchEvent) AddCall(pc int, call device.InjectedCall) {
	if ev.injectTab != nil {
		ev.ensureOwnedTab()
		ev.injectTab.Add(pc, call)
		return
	}
	if ev.Inject == nil {
		ev.Inject = make(map[int][]device.InjectedCall)
	}
	ev.Inject[pc] = append(ev.Inject[pc], call)
}

// AttachTable attaches a pre-built injected-call table. The common case — a
// single tool instrumenting the launch — borrows the tool's cached table
// with no per-launch copying; a second attachment or a later AddCall merges
// into a private copy instead.
func (ev *LaunchEvent) AttachTable(t *device.InjectTable) {
	if t.Empty() {
		return
	}
	if ev.injectTab == nil && ev.Inject == nil {
		ev.injectTab = t
		ev.injectOwned = false
		return
	}
	ev.ensureOwnedTab()
	ev.injectTab.Merge(t)
}

// ensureOwnedTab guarantees injectTab is a private, mutable table, folding
// in any calls added through the map path first.
func (ev *LaunchEvent) ensureOwnedTab() {
	switch {
	case ev.injectTab == nil:
		ev.injectTab = device.NewInjectTable(len(ev.Kernel.Instrs))
		if ev.Inject != nil {
			ev.injectTab.AddMap(ev.Inject)
			ev.Inject = nil
		}
	case !ev.injectOwned:
		// The copy comes from a pool: Context.Launch releases owned
		// tables once the device is done with them.
		ev.injectTab = ev.injectTab.ClonePooled()
	}
	ev.injectOwned = true
}

// Interceptor observes and modifies kernel launches; Exit runs when the
// hosting program terminates (tools print final reports there).
type Interceptor interface {
	OnLaunch(ev *LaunchEvent)
	OnExit()
}

// Module is a loaded collection of kernels, by name.
type Module struct {
	kernels map[string]*sass.Kernel
}

// NewModule builds a module from kernels. Duplicate names panic: module
// construction is program-definition time, not runtime.
func NewModule(kernels ...*sass.Kernel) *Module {
	m := &Module{kernels: make(map[string]*sass.Kernel, len(kernels))}
	for _, k := range kernels {
		if _, dup := m.kernels[k.Name]; dup {
			panic("cuda: duplicate kernel " + k.Name)
		}
		m.kernels[k.Name] = k
	}
	return m
}

// Kernel returns a kernel by name.
func (m *Module) Kernel(name string) (*sass.Kernel, error) {
	k, ok := m.kernels[name]
	if !ok {
		return nil, fmt.Errorf("cuda: no kernel %q in module", name)
	}
	return k, nil
}

// Context is a CUDA context: a device plus launch bookkeeping.
type Context struct {
	Dev *device.Device

	// MaxDynInstr, when non-zero, caps the dynamic instructions of every
	// launch from this context (the per-session cycle budget of the public
	// API); an exceeded budget surfaces as device.ErrBudget.
	MaxDynInstr uint64
	// Cancel, when non-nil, cooperatively stops every launch from this
	// context once closed (the context.Context.Done plumbing of the public
	// API); a stopped launch surfaces as device.ErrCanceled.
	Cancel <-chan struct{}

	interceptors []Interceptor
	invocations  map[string]int

	// LaunchesDone counts completed kernel launches.
	LaunchesDone int
}

// NewContext creates a context on a fresh device with the default cost
// model.
func NewContext() *Context {
	return &Context{
		Dev:         device.New(device.DefaultConfig()),
		invocations: make(map[string]int),
	}
}

// NewContextOn creates a context on an existing device.
func NewContextOn(dev *device.Device) *Context {
	return &Context{Dev: dev, invocations: make(map[string]int)}
}

// Intercept registers an interceptor (in LD_PRELOAD order: first registered
// sees the launch first).
func (c *Context) Intercept(i Interceptor) { c.interceptors = append(c.interceptors, i) }

// Launch runs a kernel through the interceptor chain and then on the
// device.
func (c *Context) Launch(k *sass.Kernel, gridDim, blockDim int, params ...uint32) error {
	ev := &LaunchEvent{
		Ctx:        c,
		Kernel:     k,
		Invocation: c.invocations[k.Name],
		GridDim:    gridDim,
		BlockDim:   blockDim,
		Params:     params,
	}
	c.invocations[k.Name]++
	for _, i := range c.interceptors {
		i.OnLaunch(ev)
	}
	c.Dev.AdvanceHost(ev.HostCycles)
	_, err := c.Dev.Launch(&device.Launch{
		Kernel:      ev.Kernel,
		GridDim:     ev.GridDim,
		BlockDim:    ev.BlockDim,
		Params:      ev.Params,
		Inject:      ev.Inject,
		InjectTab:   ev.injectTab,
		MaxDynInstr: c.MaxDynInstr,
		Cancel:      c.Cancel,
	})
	// An owned table was cloned (or built) for this launch alone; hand it
	// back to the pool. Borrowed tables belong to a tool's cache and stay
	// out. A panicking launch never reaches this, which is deliberate —
	// see the scratch pool notes in internal/device.
	if ev.injectOwned {
		ev.injectTab.Release()
		ev.injectTab = nil
	}
	if err != nil {
		return fmt.Errorf("cuda: launching %s: %w", k.Name, err)
	}
	c.LaunchesDone++
	return nil
}

// MaxKernelLaunches returns the launch count of the most-launched kernel.
// Sampling (freq-redn-factor) counts invocations per kernel, so this — not
// the total launch count — is the bound saturation arguments reason about:
// a factor at or above it leaves exactly invocation 0 instrumented for
// every kernel.
func (c *Context) MaxKernelLaunches() int {
	m := 0
	for _, n := range c.invocations {
		if n > m {
			m = n
		}
	}
	return m
}

// LaunchedKernels returns the names of the kernels launched so far, sorted.
// A kernel whitelist that names all of them instruments exactly what no
// whitelist would.
func (c *Context) LaunchedKernels() []string {
	names := make([]string, 0, len(c.invocations))
	for name := range c.invocations {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Exit signals program termination to all interceptors.
func (c *Context) Exit() {
	for _, i := range c.interceptors {
		i.OnExit()
	}
}
