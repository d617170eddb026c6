package device

import "gpufpx/internal/sass"

// unitCycles is the per-warp cycle cost of one issue on each functional
// unit. The absolute values are a conventional throughput model (FP64 and
// SFU slower than FP32, memory slower still); only the ratios matter for
// the slowdown experiments, which divide instrumented by uninstrumented
// cycle counts.
var unitCycles = [sass.NumUnits]uint64{
	sass.UnitMisc: 1,
	sass.UnitInt:  1,
	sass.UnitFP32: 2,
	sass.UnitFP64: 8,
	sass.UnitFP16: 2,
	sass.UnitMUFU: 8,
	// One tensor-core op retires 8×8×4 MACs per warp; high throughput,
	// but more work per issue than a scalar FP32 op.
	sass.UnitTensor: 8,
	sass.UnitGlobal: 24,
	// Atomics serialize at the memory subsystem.
	sass.UnitAtomic: 48,
	sass.UnitShared: 4,
	sass.UnitBranch: 2,
}

// instrCost returns the per-warp cycle cost of one dynamic execution of in.
func instrCost(in *sass.Instr) uint64 { return unitCycles[in.Op.Unit()] }
