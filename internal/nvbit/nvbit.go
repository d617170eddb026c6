// Package nvbit reproduces the binary-instrumentation framework GPU-FPX is
// built on: it intercepts kernel launches through the cuda layer, lets a
// tool inspect each SASS instruction and insert device-function calls before
// or after it, supports enabling/disabling the instrumented version per
// launch (nvbit_enable_instrumented), and charges the JIT-recompilation
// overhead that dominates NVBit's cost — incurred on every instrumented
// launch, which is exactly what GPU-FPX's selective instrumentation
// (Algorithm 3) avoids.
package nvbit

import (
	"gpufpx/internal/cuda"
	"gpufpx/internal/device"
	"gpufpx/internal/sass"
)

// Costs is the framework overhead model.
type Costs struct {
	// InterceptCycles is charged per launch for driver-API interception,
	// instrumented or not.
	InterceptCycles uint64
	// JITBaseCycles + JITPerInstrCycles×len(instrs) is charged per
	// instrumented launch for JIT recompilation of the kernel.
	JITBaseCycles     uint64
	JITPerInstrCycles uint64
}

// DefaultCosts is the overhead model used in the evaluation.
func DefaultCosts() Costs {
	return Costs{
		InterceptCycles:   200,
		JITBaseCycles:     2_000,
		JITPerInstrCycles: 15,
	}
}

// Tool is a binary-instrumentation tool (GPU-FPX's detector and analyzer,
// and the BinFPE baseline, implement this).
type Tool interface {
	// Name identifies the tool in reports.
	Name() string
	// ShouldInstrument is consulted on every launch; selective
	// instrumentation (whitelists, invocation sampling) lives here.
	ShouldInstrument(k *sass.Kernel, invocation int) bool
	// Instrument builds the injected-call table for a kernel. It is
	// called once per kernel; the framework caches the result (the
	// instrumented SASS), though JIT cost recurs per instrumented launch.
	Instrument(k *sass.Kernel) map[int][]device.InjectedCall
	// OnExit runs at program termination.
	OnExit()
}

// Stats counts framework activity for the sampling experiments.
type Stats struct {
	Launches             int
	InstrumentedLaunches int
	JITCycles            uint64
}

// NVBit is one attached tool instance.
type NVBit struct {
	tool  Tool
	costs Costs
	// cache holds each kernel's instrumented form, pre-split into the
	// launch-ready call table (the instrumented SASS of the real tool):
	// Instrument runs once per kernel and every subsequent launch borrows
	// the table without rebuilding or copying the call schedule.
	cache map[*sass.Kernel]*device.InjectTable

	// Stats is exported for the benchmark harness.
	Stats Stats
}

// Attach hooks a tool into a CUDA context — the LD_PRELOAD moment of
// Figure 1. The returned handle exposes framework statistics.
func Attach(ctx *cuda.Context, tool Tool, costs Costs) *NVBit {
	n := &NVBit{
		tool:  tool,
		costs: costs,
		cache: make(map[*sass.Kernel]*device.InjectTable),
	}
	ctx.Intercept(n)
	return n
}

// OnLaunch implements cuda.Interceptor.
func (n *NVBit) OnLaunch(ev *cuda.LaunchEvent) {
	n.Stats.Launches++
	ev.HostCycles += n.costs.InterceptCycles
	if !n.tool.ShouldInstrument(ev.Kernel, ev.Invocation) {
		return
	}
	n.Stats.InstrumentedLaunches++

	tab, ok := n.cache[ev.Kernel]
	if !ok {
		tab = device.BuildInjectTable(len(ev.Kernel.Instrs), n.tool.Instrument(ev.Kernel))
		n.cache[ev.Kernel] = tab
	}
	// JIT recompilation recurs per instrumented launch — the overhead
	// §3.1.3's sampling exists to amortize.
	jit := n.costs.JITBaseCycles + n.costs.JITPerInstrCycles*uint64(len(ev.Kernel.Instrs))
	ev.HostCycles += jit
	n.Stats.JITCycles += jit

	ev.AttachTable(tab)
}

// OnExit implements cuda.Interceptor.
func (n *NVBit) OnExit() { n.tool.OnExit() }
