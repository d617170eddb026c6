package cuda

import (
	"math"
	"testing"

	"gpufpx/internal/device"
	"gpufpx/internal/sass"
)

var addKernel = sass.MustParse("add_one", `
MOV R0, c[0x0][0x160] ;
LDG.E R1, [R0] ;
FADD R1, R1, 1.0 ;
STG.E [R0], R1 ;
EXIT ;
`)

func TestModuleLookup(t *testing.T) {
	m := NewModule(addKernel)
	if _, err := m.Kernel("add_one"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Kernel("missing"); err == nil {
		t.Fatal("expected error for missing kernel")
	}
}

func TestModuleDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate kernel names")
		}
	}()
	NewModule(addKernel, addKernel)
}

func TestLaunchRunsKernel(t *testing.T) {
	ctx := NewContext()
	addr := ctx.Dev.Alloc(4)
	ctx.Dev.Store32(addr, math.Float32bits(41))
	if err := ctx.Launch(addKernel, 1, 1, addr); err != nil {
		t.Fatal(err)
	}
	if got := math.Float32frombits(ctx.Dev.Load32(addr)); got != 42 {
		t.Fatalf("got %v, want 42", got)
	}
	if ctx.LaunchesDone != 1 {
		t.Fatalf("LaunchesDone = %d", ctx.LaunchesDone)
	}
}

type recordingInterceptor struct {
	events []*LaunchEvent
	exited bool
}

func (r *recordingInterceptor) OnLaunch(ev *LaunchEvent) {
	r.events = append(r.events, ev)
	ev.HostCycles += 100
	ev.AttachTable(device.BuildInjectTable(len(ev.Kernel.Instrs), map[int][]device.InjectedCall{
		2: {{When: device.After, Cost: 5}},
	}))
}
func (r *recordingInterceptor) OnExit() { r.exited = true }

func TestInterceptorSeesLaunchesAndInvocationCount(t *testing.T) {
	ctx := NewContext()
	ri := &recordingInterceptor{}
	ctx.Intercept(ri)
	addr := ctx.Dev.Alloc(4)

	before := ctx.Dev.Cycles
	for i := 0; i < 3; i++ {
		if err := ctx.Launch(addKernel, 1, 1, addr); err != nil {
			t.Fatal(err)
		}
	}
	if len(ri.events) != 3 {
		t.Fatalf("interceptor saw %d events", len(ri.events))
	}
	for i, ev := range ri.events {
		if ev.Invocation != i {
			t.Errorf("event %d invocation = %d", i, ev.Invocation)
		}
		if ev.injectTab.Empty() {
			t.Errorf("event %d injected calls missing", i)
		}
	}
	// Host cycles charged: 3 × 100 plus kernel work plus injected cost.
	if ctx.Dev.Cycles-before < 300 {
		t.Error("host cycles not charged")
	}
	ctx.Exit()
	if !ri.exited {
		t.Error("OnExit not delivered")
	}
}

func TestLaunchErrorWraps(t *testing.T) {
	ctx := NewContext()
	if err := ctx.Launch(addKernel, 0, 1); err == nil {
		t.Fatal("expected launch-dimension error")
	}
}
