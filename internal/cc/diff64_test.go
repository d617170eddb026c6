package cc

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"gpufpx/internal/device"
)

// FP64 differential testing: random double-precision expression trees over
// DADD/DMUL/DFMA/DSETP+select, compiled and executed, checked bit-for-bit
// against a host mirror. This stresses the FP64 register-pair conventions
// (allocation, operand folding of Neg/Abs on pairs, predicate selects over
// pairs) that single-precision trees never touch.

type expr64 interface {
	build() Expr
	eval(a, b float64) float64
	String() string
}

type inA64 struct{}
type inB64 struct{}
type lit64 struct{ v float64 }
type bin64 struct {
	op   BinOp
	x, y expr64
}
type fma64 struct{ x, y, z expr64 }
type un64 struct {
	op   UnOp
	x    expr64
	name string
}
type sel64 struct {
	cmp     CmpOp
	cx, cy  expr64
	tv, fv  expr64
	cmpName string
}

func (inA64) build() Expr                 { return At("a", Gid()) }
func (inA64) eval(a, _ float64) float64   { return a }
func (inA64) String() string              { return "a" }
func (inB64) build() Expr                 { return At("b", Gid()) }
func (inB64) eval(_, b float64) float64   { return b }
func (inB64) String() string              { return "b" }
func (l lit64) build() Expr               { return F(l.v) }
func (l lit64) eval(_, _ float64) float64 { return l.v }
func (l lit64) String() string            { return fmt.Sprintf("%g", l.v) }

func (e bin64) build() Expr {
	switch e.op {
	case Add:
		return AddE(e.x.build(), e.y.build())
	case Sub:
		return SubE(e.x.build(), e.y.build())
	case Mul:
		return MulE(e.x.build(), e.y.build())
	}
	panic("unreachable")
}

func (e bin64) eval(a, b float64) float64 {
	x, y := e.x.eval(a, b), e.y.eval(a, b)
	switch e.op {
	case Add:
		return x + y
	case Sub:
		return x - y
	case Mul:
		return x * y
	}
	panic("unreachable")
}

func (e bin64) String() string { return fmt.Sprintf("(%s %v %s)", e.x, e.op, e.y) }

func (e fma64) build() Expr { return FMA(e.x.build(), e.y.build(), e.z.build()) }
func (e fma64) eval(a, b float64) float64 {
	return math.FMA(e.x.eval(a, b), e.y.eval(a, b), e.z.eval(a, b))
}
func (e fma64) String() string { return fmt.Sprintf("fma(%s, %s, %s)", e.x, e.y, e.z) }

func (e un64) build() Expr {
	if e.op == Neg {
		return NegE(e.x.build())
	}
	return AbsE(e.x.build())
}
func (e un64) eval(a, b float64) float64 {
	bits := math.Float64bits(e.x.eval(a, b))
	if e.op == Neg {
		return math.Float64frombits(bits ^ (1 << 63))
	}
	return math.Float64frombits(bits &^ (1 << 63))
}
func (e un64) String() string { return fmt.Sprintf("%s(%s)", e.name, e.x) }

func (e sel64) build() Expr {
	return Sel(Cmp(e.cmp, e.cx.build(), e.cy.build()), e.tv.build(), e.fv.build())
}
func (e sel64) eval(a, b float64) float64 {
	x, y := e.cx.eval(a, b), e.cy.eval(a, b)
	var cond bool
	switch e.cmp {
	case LT:
		cond = x < y
	case LE:
		cond = x <= y
	case GT:
		cond = x > y
	case GE:
		cond = x >= y
	case EQ:
		cond = x == y
	case NE:
		cond = x == x && y == y && x != y // ordered DSETP.NE
	}
	if cond {
		return e.tv.eval(a, b)
	}
	return e.fv.eval(a, b)
}
func (e sel64) String() string {
	return fmt.Sprintf("sel(%s %s %s, %s, %s)", e.cx, e.cmpName, e.cy, e.tv, e.fv)
}

// hasInput64 reports whether the tree reads either kernel input. A subtree
// made only of literals is "flexible" in cc's type system and resolves to
// F32 when it has no F64 context — comparison operands are the one place
// with no outer float context, so gen64 forces an input leaf into them to
// keep the compiled semantics F64 (matching the host mirror).
func hasInput64(e expr64) bool {
	switch n := e.(type) {
	case inA64, inB64:
		return true
	case bin64:
		return hasInput64(n.x) || hasInput64(n.y)
	case fma64:
		return hasInput64(n.x) || hasInput64(n.y) || hasInput64(n.z)
	case un64:
		return hasInput64(n.x)
	case sel64:
		return hasInput64(n.tv) || hasInput64(n.fv)
	}
	return false
}

func (g *treeGen) gen64(depth int) expr64 {
	if depth <= 0 {
		switch g.next() % 3 {
		case 0:
			return inA64{}
		case 1:
			return inB64{}
		default:
			pool := []float64{0, 1, -1, 0.5, 2, 1e300, 1e-300, 3.25}
			return lit64{pool[g.next()%uint64(len(pool))]}
		}
	}
	switch g.next() % 6 {
	case 0:
		return bin64{Add, g.gen64(depth - 1), g.gen64(depth - 1)}
	case 1:
		return bin64{Sub, g.gen64(depth - 1), g.gen64(depth - 1)}
	case 2:
		return bin64{Mul, g.gen64(depth - 1), g.gen64(depth - 1)}
	case 3:
		return fma64{g.gen64(depth - 1), g.gen64(depth - 1), g.gen64(depth - 1)}
	case 4:
		ops := []struct {
			op   UnOp
			name string
		}{{Neg, "neg"}, {Abs, "abs"}}
		o := ops[g.next()%2]
		return un64{o.op, g.gen64(depth - 1), o.name}
	default:
		cmps := []struct {
			op   CmpOp
			name string
		}{{LT, "<"}, {LE, "<="}, {GT, ">"}, {GE, ">="}, {EQ, "=="}, {NE, "!="}}
		c := cmps[g.next()%uint64(len(cmps))]
		cx, cy := g.gen64(depth-1), g.gen64(depth-1)
		if !hasInput64(cx) && !hasInput64(cy) {
			cx = inA64{}
		}
		return sel64{c.op, cx, cy, g.gen64(depth - 1), g.gen64(depth - 1), c.name}
	}
}

func sameBits64(got, want float64) bool {
	if got != got || want != want {
		return got != got && want != want
	}
	return got == want
}

func TestCompilerDifferentialRandomTreesF64(t *testing.T) {
	prop := func(seed uint64, as, bs [16]uint64) bool {
		g := &treeGen{state: seed | 1}
		tree := g.gen64(3)
		def := &KernelDef{
			Name:   "difftest64",
			Params: []Param{{"a", PtrF64}, {"b", PtrF64}, {"o", PtrF64}},
			Body:   []Stmt{Store("o", Gid(), tree.build())},
		}
		k, err := Compile(def, Options{})
		if err != nil {
			t.Logf("tree %s failed to compile: %v", tree, err)
			return false
		}
		n := len(as)
		d := device.New(device.DefaultConfig())
		pa, pb, po := d.Alloc(uint32(8*n)), d.Alloc(uint32(8*n)), d.Alloc(uint32(8*n))
		for i := 0; i < n; i++ {
			d.Store64(pa+uint32(8*i), as[i])
			d.Store64(pb+uint32(8*i), bs[i])
		}
		if _, err := d.Launch(&device.Launch{Kernel: k, GridDim: 1, BlockDim: n, Params: []uint32{pa, pb, po}}); err != nil {
			t.Logf("tree %s failed to run: %v", tree, err)
			return false
		}
		for i := 0; i < n; i++ {
			a := math.Float64frombits(as[i])
			b := math.Float64frombits(bs[i])
			got := math.Float64frombits(d.Load64(po + uint32(8*i)))
			want := tree.eval(a, b)
			if !sameBits64(got, want) {
				t.Logf("tree %s\nlane %d: a=%x(%g) b=%x(%g): got %x(%g), want %x(%g)",
					tree, i, as[i], a, bs[i], b,
					math.Float64bits(got), got, math.Float64bits(want), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestCompilerDifferentialF64DemoteConsistency checks DemoteF64 against the
// host mirror computed entirely in float32 — the demoted build must behave
// exactly like a single-precision version of the same tree, which is the
// property GPU-FPX relies on when it flags FP64-source programs producing
// FP32 exception records.
func TestCompilerDifferentialF64DemoteConsistency(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		g := &treeGen{state: seed * 0x9E3779B97F4A7C15}
		tree := g.gen64(3)
		def := &KernelDef{
			Name:   "demotetest",
			Params: []Param{{"a", PtrF64}, {"b", PtrF64}, {"o", PtrF64}},
			Body:   []Stmt{Store("o", Gid(), tree.build())},
		}
		k, err := Compile(def, Options{DemoteF64: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		const n = 16
		d := device.New(device.DefaultConfig())
		pa, pb, po := d.Alloc(8*n), d.Alloc(8*n), d.Alloc(8*n)
		gen := &treeGen{state: seed ^ 0xABCDEF}
		var av, bv [n]float64
		for i := 0; i < n; i++ {
			// Inputs exactly representable in float32 so demotion loses
			// nothing on the loads themselves.
			av[i] = float64(math.Float32frombits(uint32(gen.next()) & 0x7F7F_FFFF))
			bv[i] = float64(math.Float32frombits(uint32(gen.next()) & 0x7F7F_FFFF))
			d.Store64(pa+uint32(8*i), math.Float64bits(av[i]))
			d.Store64(pb+uint32(8*i), math.Float64bits(bv[i]))
		}
		if _, err := d.Launch(&device.Launch{Kernel: k, GridDim: 1, BlockDim: n, Params: []uint32{pa, pb, po}}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; i < n; i++ {
			got := math.Float64frombits(d.Load64(po + uint32(8*i)))
			want := float64(eval64As32(tree, float32(av[i]), float32(bv[i])))
			if !sameBits64(got, want) {
				t.Fatalf("seed %d lane %d: tree %s: demoted got %g, f32 reference %g",
					seed, i, tree, got, want)
			}
		}
	}
}

// eval64As32 evaluates an FP64 tree in single precision, mirroring what
// DemoteF64 compiles.
func eval64As32(e expr64, a, b float32) float32 {
	switch n := e.(type) {
	case inA64:
		return a
	case inB64:
		return b
	case lit64:
		return float32(n.v)
	case bin64:
		x, y := eval64As32(n.x, a, b), eval64As32(n.y, a, b)
		switch n.op {
		case Add:
			return x + y
		case Sub:
			return x - y
		case Mul:
			return x * y
		}
	case fma64:
		x, y := eval64As32(n.x, a, b), eval64As32(n.y, a, b)
		z := eval64As32(n.z, a, b)
		return fma32Ref(x, y, z)
	case un64:
		bits := math.Float32bits(eval64As32(n.x, a, b))
		if n.op == Neg {
			return math.Float32frombits(bits ^ 0x8000_0000)
		}
		return math.Float32frombits(bits &^ 0x8000_0000)
	case sel64:
		x, y := eval64As32(n.cx, a, b), eval64As32(n.cy, a, b)
		var cond bool
		switch n.cmp {
		case LT:
			cond = x < y
		case LE:
			cond = x <= y
		case GT:
			cond = x > y
		case GE:
			cond = x >= y
		case EQ:
			cond = x == y
		case NE:
			cond = x == x && y == y && x != y
		}
		if cond {
			return eval64As32(n.tv, a, b)
		}
		return eval64As32(n.fv, a, b)
	}
	panic("unreachable")
}
