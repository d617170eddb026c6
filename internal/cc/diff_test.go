package cc

import (
	"fmt"
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"gpufpx/internal/device"
)

// Differential testing of the whole compile-and-execute stack: random FP32
// expression trees are lowered to SASS, run on the simulator, and compared
// against a host-side interpreter that evaluates the same tree with the
// device's documented semantics (plain IEEE float32 arithmetic, FMA rounded
// once to float32, IEEE-2008 min/max, ordered comparisons false on NaN).
// Inputs are raw random bit patterns, so NaNs, infinities and subnormals
// all flow through every operator shape.

// expr is the host-side mirror of a generated expression tree.
type expr interface {
	// build produces the cc AST for the tree.
	build() Expr
	// eval computes the reference value for one lane.
	eval(a, b float32) float32
	String() string
}

type inA struct{}
type inB struct{}
type lit struct{ v float32 }
type bin struct {
	op   BinOp
	x, y expr
}
type fma struct{ x, y, z expr }
type un struct {
	op   UnOp
	x    expr
	name string
}
type selNode struct {
	cmp     CmpOp
	cx, cy  expr
	tv, fv  expr
	cmpName string
}

func (inA) build() Expr                 { return At("a", Gid()) }
func (inA) eval(a, _ float32) float32   { return a }
func (inA) String() string              { return "a" }
func (inB) build() Expr                 { return At("b", Gid()) }
func (inB) eval(_, b float32) float32   { return b }
func (inB) String() string              { return "b" }
func (l lit) build() Expr               { return F(float64(l.v)) }
func (l lit) eval(_, _ float32) float32 { return l.v }
func (l lit) String() string            { return fmt.Sprintf("%g", l.v) }

func (e bin) build() Expr {
	switch e.op {
	case Add:
		return AddE(e.x.build(), e.y.build())
	case Sub:
		return SubE(e.x.build(), e.y.build())
	case Mul:
		return MulE(e.x.build(), e.y.build())
	case Min:
		return MinE(e.x.build(), e.y.build())
	case Max:
		return MaxE(e.x.build(), e.y.build())
	}
	panic("unreachable")
}

func (e bin) eval(a, b float32) float32 {
	x, y := e.x.eval(a, b), e.y.eval(a, b)
	switch e.op {
	case Add:
		return x + y
	case Sub:
		return x - y
	case Mul:
		return x * y
	case Min:
		return refMinMax(x, y, true)
	case Max:
		return refMinMax(x, y, false)
	}
	panic("unreachable")
}

func (e bin) String() string {
	return fmt.Sprintf("(%s %v %s)", e.x, e.op, e.y)
}

// refMinMax mirrors FMNMX: IEEE-2008 semantics where a single NaN operand is
// dropped in favour of the numeric one.
func refMinMax(a, b float32, min bool) float32 {
	an, bn := a != a, b != b
	switch {
	case an && bn:
		return float32(math.NaN())
	case an:
		return b
	case bn:
		return a
	}
	if min == (a < b) {
		return a
	}
	return b
}

func (e fma) build() Expr { return FMA(e.x.build(), e.y.build(), e.z.build()) }
func (e fma) eval(a, b float32) float32 {
	return fma32Ref(e.x.eval(a, b), e.y.eval(a, b), e.z.eval(a, b))
}
func (e fma) String() string { return fmt.Sprintf("fma(%s, %s, %s)", e.x, e.y, e.z) }

// fma32Ref is the FFMA reference: x*y+z formed exactly with math/big and
// rounded once to float32. float32(math.FMA(...)) would round twice — to
// float64, then to float32 — which differs when the float64 sum lands on a
// float32 rounding midpoint. Non-finite operands keep math.FMA's result.
func fma32Ref(x, y, z float32) float32 {
	for _, v := range [...]float32{x, y, z} {
		if math.IsInf(float64(v), 0) || v != v {
			return float32(math.FMA(float64(x), float64(y), float64(z)))
		}
	}
	exact := func(v float32) *big.Float { return new(big.Float).SetPrec(1024).SetFloat64(float64(v)) }
	p := exact(x)
	r, _ := p.Add(p.Mul(p, exact(y)), exact(z)).Float32()
	return r
}

func (e un) build() Expr {
	if e.op == Neg {
		return NegE(e.x.build())
	}
	return AbsE(e.x.build())
}
func (e un) eval(a, b float32) float32 {
	x := e.x.eval(a, b)
	// Neg and Abs are sign-bit operations even on NaN; mirror via bits so
	// -NaN stays a NaN without invoking float negation subtleties.
	bits := math.Float32bits(x)
	if e.op == Neg {
		return math.Float32frombits(bits ^ 0x8000_0000)
	}
	return math.Float32frombits(bits &^ 0x8000_0000)
}
func (e un) String() string { return fmt.Sprintf("%s(%s)", e.name, e.x) }

func (e selNode) build() Expr {
	return Sel(Cmp(e.cmp, e.cx.build(), e.cy.build()), e.tv.build(), e.fv.build())
}
func (e selNode) eval(a, b float32) float32 {
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
		// cc's NE compiles to ordered FSETP.NE: false when either is NaN.
		cond = x == x && y == y && x != y
	}
	if cond {
		return e.tv.eval(a, b)
	}
	return e.fv.eval(a, b)
}
func (e selNode) String() string {
	return fmt.Sprintf("sel(%s %s %s, %s, %s)", e.cx, e.cmpName, e.cy, e.tv, e.fv)
}

// treeGen builds a random expression tree from a deterministic seed stream.
type treeGen struct {
	state uint64
	nfor  int // unique loop-variable counter for control-flow programs
}

func (g *treeGen) next() uint64 {
	// xorshift64*: the corpus generator's PRNG, reused for reproducibility.
	g.state ^= g.state >> 12
	g.state ^= g.state << 25
	g.state ^= g.state >> 27
	return g.state * 0x2545F4914F6CDD1D
}

func (g *treeGen) gen(depth int) expr {
	if depth <= 0 {
		switch g.next() % 3 {
		case 0:
			return inA{}
		case 1:
			return inB{}
		default:
			// Small literal pool: exact values plus boundary magnitudes.
			pool := []float32{0, 1, -1, 0.5, 2, 1e30, 1e-30, 3.25}
			return lit{pool[g.next()%uint64(len(pool))]}
		}
	}
	switch g.next() % 8 {
	case 0:
		return bin{Add, g.gen(depth - 1), g.gen(depth - 1)}
	case 1:
		return bin{Sub, g.gen(depth - 1), g.gen(depth - 1)}
	case 2:
		return bin{Mul, g.gen(depth - 1), g.gen(depth - 1)}
	case 3:
		return bin{Min, g.gen(depth - 1), g.gen(depth - 1)}
	case 4:
		return bin{Max, g.gen(depth - 1), g.gen(depth - 1)}
	case 5:
		return fma{g.gen(depth - 1), g.gen(depth - 1), g.gen(depth - 1)}
	case 6:
		ops := []struct {
			op   UnOp
			name string
		}{{Neg, "neg"}, {Abs, "abs"}}
		o := ops[g.next()%2]
		return un{o.op, g.gen(depth - 1), o.name}
	default:
		cmps := []struct {
			op   CmpOp
			name string
		}{{LT, "<"}, {LE, "<="}, {GT, ">"}, {GE, ">="}, {EQ, "=="}, {NE, "!="}}
		c := cmps[g.next()%uint64(len(cmps))]
		return selNode{c.op, g.gen(depth - 1), g.gen(depth - 1), g.gen(depth - 1), g.gen(depth - 1), c.name}
	}
}

// sameBits compares a device result with the reference: NaNs of any payload
// agree, zeros of either sign agree (FMNMX zero-sign is unspecified),
// everything else must match exactly.
func sameBits(got, want float32) bool {
	if got != got || want != want {
		return got != got && want != want
	}
	return got == want
}

// TestCompilerDifferentialRandomTrees compiles random FP32 expression trees
// and checks the simulator's result against the host reference for raw
// random input bits, exercising codegen, register allocation, operand
// folding, predication and execution together.
func TestCompilerDifferentialRandomTrees(t *testing.T) {
	prop := func(seed uint64, as, bs [32]uint32) bool {
		g := &treeGen{state: seed | 1}
		tree := g.gen(3)
		def := &KernelDef{
			Name:   "difftest",
			Params: []Param{{"a", PtrF32}, {"b", PtrF32}, {"o", PtrF32}},
			Body:   []Stmt{Store("o", Gid(), tree.build())},
		}
		k, err := Compile(def, Options{})
		if err != nil {
			t.Logf("tree %s failed to compile: %v", tree, err)
			return false
		}
		n := len(as)
		d := device.New(device.DefaultConfig())
		pa, pb, po := d.Alloc(uint32(4*n)), d.Alloc(uint32(4*n)), d.Alloc(uint32(4*n))
		for i := 0; i < n; i++ {
			d.Store32(pa+uint32(4*i), as[i])
			d.Store32(pb+uint32(4*i), bs[i])
		}
		if _, err := d.Launch(&device.Launch{Kernel: k, GridDim: 1, BlockDim: 32, Params: []uint32{pa, pb, po}}); err != nil {
			t.Logf("tree %s failed to run: %v", tree, err)
			return false
		}
		for i := 0; i < n; i++ {
			a := math.Float32frombits(as[i])
			b := math.Float32frombits(bs[i])
			got := math.Float32frombits(d.Load32(po + uint32(4*i)))
			want := tree.eval(a, b)
			if !sameBits(got, want) {
				t.Logf("tree %s\nlane %d: a=%x(%g) b=%x(%g): got %x(%g), want %x(%g)",
					tree, i, as[i], a, bs[i], b,
					math.Float32bits(got), got, math.Float32bits(want), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestCompilerDifferentialDeepTrees stresses register allocation with deeper
// trees on a handful of fixed seeds (deep trees compile many temporaries; a
// leak in free/alloc pairing shows up here as register exhaustion).
func TestCompilerDifferentialDeepTrees(t *testing.T) {
	inputs := [32]uint32{}
	for i := range inputs {
		inputs[i] = uint32(0x3f80_0000 + i*0x100) // near 1.0
	}
	for seed := uint64(1); seed <= 24; seed++ {
		g := &treeGen{state: seed * 0x9E3779B97F4A7C15}
		tree := g.gen(5)
		def := &KernelDef{
			Name:   "deeptest",
			Params: []Param{{"a", PtrF32}, {"b", PtrF32}, {"o", PtrF32}},
			Body:   []Stmt{Store("o", Gid(), tree.build())},
		}
		k, err := Compile(def, Options{})
		if err != nil {
			t.Fatalf("seed %d: tree %s: %v", seed, tree, err)
		}
		d := device.New(device.DefaultConfig())
		pa, pb, po := d.Alloc(4*32), d.Alloc(4*32), d.Alloc(4*32)
		for i := 0; i < 32; i++ {
			d.Store32(pa+uint32(4*i), inputs[i])
			d.Store32(pb+uint32(4*i), inputs[31-i])
		}
		if _, err := d.Launch(&device.Launch{Kernel: k, GridDim: 1, BlockDim: 32, Params: []uint32{pa, pb, po}}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; i < 32; i++ {
			a := math.Float32frombits(inputs[i])
			b := math.Float32frombits(inputs[31-i])
			got := math.Float32frombits(d.Load32(po + uint32(4*i)))
			if want := tree.eval(a, b); !sameBits(got, want) {
				t.Fatalf("seed %d lane %d: tree %s: got %g want %g", seed, i, tree, got, want)
			}
		}
	}
}
