package gpufpx_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"gpufpx/pkg/gpufpx"
)

// TestUniqueListingsLeaveLiveHeapFlat: every SASSText run parses a fresh
// kernel, and the program the executor builds for it (decode, lowered
// thunks, fused regions) belongs to that kernel. Once the run is over
// nothing else holds the kernel, so live heap after GC must not grow with
// the number of unique listings a long-lived session has run.
func TestUniqueListingsLeaveLiveHeapFlat(t *testing.T) {
	s := gpufpx.New()
	ctx := context.Background()
	run := func(from, to int) {
		for i := from; i < to; i++ {
			src := fmt.Sprintf(`MOV32I R2, 0x%08x ;
MOV32I R3, 0x3f800000 ;
FADD R4, R2, R3 ;
FMUL R5, R4, R2 ;
FFMA R6, R5, R3, R4 ;
FADD R7, R6, -R5 ;
EXIT ;`, 0x3f000000+i)
			if _, err := s.Run(ctx, gpufpx.SASSText(fmt.Sprintf("unique-%d.sass", i), src, 1, 32)); err != nil {
				t.Fatalf("listing %d: %v", i, err)
			}
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}

	const warm, n = 500, 5000
	run(0, warm) // fill the launch scratch pools and the tools' fixed tables
	before := liveHeap()
	run(warm, warm+n)
	grown := liveHeap() - before
	// A retained kernel with its program costs about 4 KB, so n listings
	// kept alive would add ~20 MB; 1 MB (200 B a listing) is measurement
	// slack.
	if grown > 1<<20 {
		t.Errorf("live heap grew %.1f MB over %d unique listings (%.0f B each); kernels are being retained",
			float64(grown)/(1<<20), n, float64(grown)/n)
	}
}
