package bench

import (
	"bytes"
	"sync"
	"testing"

	"gpufpx/internal/cc"
	"gpufpx/internal/device"
	"gpufpx/internal/progs"
)

// execModes enumerates the executors every differential must agree across.
var execModes = []struct {
	name string
	mode device.ExecMode
}{
	{"interp", device.ExecInterp},
	{"lowered", device.ExecLowered},
	{"fused", device.ExecFused},
}

// setExecMode pins the process-wide default executor for one test and
// restores it afterwards.
func setExecMode(t *testing.T, m device.ExecMode) {
	t.Helper()
	old := device.DefaultExecMode()
	device.SetDefaultExecMode(m)
	t.Cleanup(func() { device.SetDefaultExecMode(old) })
}

// diffSweeps compares two sweeps of the same program list run under
// different executors: every (program, tool) run must agree on cycles, hang
// verdict and exception summary, and the rendered artifacts must be
// byte-identical.
func diffSweeps(t *testing.T, ps []progs.Program, want, got *Sweep, label string) {
	t.Helper()
	colName := [4]string{"plain", "BinFPE", "w/o GT", "GPU-FPX"}
	wantCols := [4][]RunResult{want.Plain, want.BinFPE, want.NoGT, want.FPX}
	gotCols := [4][]RunResult{got.Plain, got.BinFPE, got.NoGT, got.FPX}
	for c := range wantCols {
		for i := range wantCols[c] {
			w, g := wantCols[c][i], gotCols[c][i]
			if w.Cycles != g.Cycles || w.Hung != g.Hung || w.Summary != g.Summary {
				t.Errorf("%s: %s under %s: cycles %d/%d hung %v/%v summaries equal=%v",
					label, ps[i].Name, colName[c], w.Cycles, g.Cycles, w.Hung, g.Hung,
					w.Summary == g.Summary)
			}
		}
	}
	if !bytes.Equal(renderSweep(want), renderSweep(got)) {
		t.Errorf("%s: rendered artifacts differ between executors", label)
	}
}

// TestExecutorsDifferentialFullCorpus is the lowering pass's correctness
// contract: the whole corpus, run under the interpreter and under the
// direct-threaded lowered executor, must agree on every simulated cycle
// count, every hang verdict and every exception summary, and render
// byte-identical artifacts. Lowering only changes how fast the host
// simulates — never what the device computes.
func TestExecutorsDifferentialFullCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-corpus differential sweep in -short mode")
	}
	ps := progs.All()

	setExecMode(t, device.ExecInterp)
	interp := RunSweepOn(ps)
	if err := interp.Err(); err != nil {
		t.Fatal(err)
	}

	device.SetDefaultExecMode(device.ExecLowered)
	lowered := RunSweepOn(ps)
	if err := lowered.Err(); err != nil {
		t.Fatal(err)
	}

	diffSweeps(t, ps, interp, lowered, "interp vs lowered")
}

// TestExecutorsDifferentialSubsetParallel is the fast cross-section of the
// differential contract that still runs in -short and -race CI passes: the
// determinism subset under both executors at 8 workers, with the lowered
// program shared between concurrent sweep goroutines.
func TestExecutorsDifferentialSubsetParallel(t *testing.T) {
	ps := detSubset()
	setWorkers(t, 8)

	setExecMode(t, device.ExecInterp)
	interp := RunSweepOn(ps)
	if err := interp.Err(); err != nil {
		t.Fatal(err)
	}

	device.SetDefaultExecMode(device.ExecLowered)
	lowered := RunSweepOn(ps)
	if err := lowered.Err(); err != nil {
		t.Fatal(err)
	}

	diffSweeps(t, ps, interp, lowered, "subset -j 8")
}

// TestConcurrentLaunchesShareCachedKernel launches one cached kernel from
// many devices at once — the configuration the -race CI job uses to prove
// concurrent launches never race on shared kernel state (lowered programs,
// fused chains). Every device must land on the sequential reference's
// cycle count.
func TestConcurrentLaunchesShareCachedKernel(t *testing.T) {
	def := &cc.KernelDef{
		Name:       "shared_kernel",
		SourceFile: "shared.cu",
		Params:     []cc.Param{{Name: "buf", Kind: cc.PtrF32}},
		Body: []cc.Stmt{
			cc.Let("x", cc.At("buf", cc.Gid())),
			cc.Store("buf", cc.Gid(), cc.AddE(cc.MulE(cc.V("x"), cc.V("x")), cc.F(1))),
		},
	}
	k, err := cc.CompileCached(def, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	launch := func(dev *device.Device, buf uint32) error {
		_, err := dev.Launch(&device.Launch{Kernel: k, GridDim: 8, BlockDim: 32, Params: []uint32{buf}})
		return err
	}

	for _, em := range execModes {
		setExecMode(t, em.mode)

		ref := device.New(device.DefaultConfig())
		refBuf := ref.Alloc(4 * 1024)
		for iter := 0; iter < 4; iter++ {
			if err := launch(ref, refBuf); err != nil {
				t.Fatalf("%s: reference: %v", em.name, err)
			}
		}

		const devices = 4
		var cycles [devices]uint64
		errs := make([]error, devices)
		var wg sync.WaitGroup
		wg.Add(devices)
		for d := 0; d < devices; d++ {
			go func(d int) {
				defer wg.Done()
				dev := device.New(device.DefaultConfig())
				buf := dev.Alloc(4 * 1024)
				for iter := 0; iter < 4; iter++ {
					if err := launch(dev, buf); err != nil {
						errs[d] = err
						return
					}
				}
				cycles[d] = dev.Cycles
			}(d)
		}
		wg.Wait()
		for d := 0; d < devices; d++ {
			if errs[d] != nil {
				t.Fatalf("%s: device %d: %v", em.name, d, errs[d])
			}
			if cycles[d] != ref.Cycles {
				t.Errorf("%s: device %d saw %d cycles, reference saw %d",
					em.name, d, cycles[d], ref.Cycles)
			}
		}
	}
}
