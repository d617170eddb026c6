package cc_test

import (
	"runtime"
	"testing"
	"unsafe"

	"gpufpx/internal/cc"
	"gpufpx/internal/cuda"
	"gpufpx/internal/progs"
	"gpufpx/internal/sass"
)

// launched records the kernels launched on its context.
type launched map[*sass.Kernel]bool

func (l launched) OnLaunch(ev *cuda.LaunchEvent) { l[ev.Kernel] = true }
func (l launched) OnExit()                       {}

func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkCorpusFootprint fills an empty compile cache with the corpus,
// precise and fast-math, once per op, and reports what the cache then
// holds per cached instruction. heap-B/instr is the live heap the cache
// frees when it is dropped: the kernels and the device programs built on
// their first launch. kernel-B/instr counts only the kernel arrays: the
// instruction array's capacity and each instruction's operand capacity at
// their element sizes.
func BenchmarkCorpusFootprint(b *testing.B) {
	b.ReportAllocs()
	var heapPer, kernelPer float64
	for i := 0; i < b.N; i++ {
		cc.ResetCache()
		ks := launched{}
		for _, opts := range []cc.Options{{}, {FastMath: true}} {
			for _, p := range progs.All() {
				ctx := cuda.NewContext()
				ctx.Intercept(ks)
				if err := p.Run(progs.NewRunContext(ctx, opts)); err != nil {
					b.Fatalf("%s: %v", p.Name, err)
				}
			}
		}
		full := liveHeap()
		instrs, kernelBytes := 0, uintptr(0)
		for k := range ks {
			instrs += len(k.Instrs)
			kernelBytes += uintptr(cap(k.Instrs)) * unsafe.Sizeof(sass.Instr{})
			for j := range k.Instrs {
				kernelBytes += uintptr(cap(k.Instrs[j].Operands)) * unsafe.Sizeof(sass.Operand{})
			}
		}
		ks = nil
		cc.ResetCache()
		heapPer = float64(full-liveHeap()) / float64(instrs)
		kernelPer = float64(kernelBytes) / float64(instrs)
	}
	b.ReportMetric(heapPer, "heap-B/instr")
	b.ReportMetric(kernelPer, "kernel-B/instr")
}
