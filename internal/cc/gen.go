package cc

import (
	"fmt"
	"math"

	"gpufpx/internal/sass"
)

// opnd is an expression result usable as an instruction source operand.
// tmp marks a scratch register the consumer must free.
type opnd struct {
	op  sass.Operand
	typ Type
	tmp bool
}

func (c *compiler) freeOpnd(o opnd) {
	if o.tmp && o.op.Type == sass.OperandReg {
		c.freeReg(o.typ, o.op.Reg)
	}
}

// ---- statements ----

func (c *compiler) stmt(s Stmt) error {
	switch n := s.(type) {
	case LetStmt:
		if n.Line > 0 {
			c.curLine = n.Line
		}
		if _, exists := c.vars[n.Name]; exists {
			return fmt.Errorf("variable %q already declared", n.Name)
		}
		t, flex, err := c.inferType(n.E)
		if err != nil {
			return err
		}
		t = resolve(t, flex, F32)
		if t == Pred {
			return fmt.Errorf("cannot bind predicate expression to variable %q", n.Name)
		}
		r := c.allocFor(t)
		c.vars[n.Name] = varInfo{reg: r, typ: t}
		c.scope = append(c.scope, n.Name)
		return c.genTo(n.E, t, r)
	case AssignStmt:
		if n.Line > 0 {
			c.curLine = n.Line
		}
		v, ok := c.vars[n.Name]
		if !ok {
			return fmt.Errorf("assignment to undeclared variable %q", n.Name)
		}
		return c.genTo(n.E, v.typ, v.reg)
	case StoreStmt:
		if n.Line > 0 {
			c.curLine = n.Line
		}
		return c.store(n)
	case SharedStoreStmt:
		if n.Line > 0 {
			c.curLine = n.Line
		}
		return c.sharedStore(n)
	case SyncStmt:
		c.emit(sass.NewInstr(sass.OpBAR).WithMods("SYNC"))
		return nil
	case AtomicAddStmt:
		if n.Line > 0 {
			c.curLine = n.Line
		}
		return c.atomicAdd(n)
	case ForStmt:
		if n.Line > 0 {
			c.curLine = n.Line
		}
		return c.forLoop(n)
	case IfStmt:
		if n.Line > 0 {
			c.curLine = n.Line
		}
		return c.ifStmt(n)
	default:
		return fmt.Errorf("unknown statement %T", s)
	}
}

// block compiles statements in a fresh variable scope.
func (c *compiler) block(stmts []Stmt) error {
	mark := len(c.scope)
	for _, s := range stmts {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	for _, name := range c.scope[mark:] {
		v := c.vars[name]
		c.freeReg(v.typ, v.reg)
		delete(c.vars, name)
	}
	c.scope = c.scope[:mark]
	return nil
}

func (c *compiler) store(n StoreStmt) error {
	p, ok := c.params[n.Ptr]
	if !ok {
		return fmt.Errorf("unknown array parameter %q", n.Ptr)
	}
	el, ok := p.kind.Elem()
	if !ok {
		return fmt.Errorf("parameter %q is not a pointer", n.Ptr)
	}
	t := c.demote(el)
	val, err := c.genOperand(n.E, t)
	if err != nil {
		return err
	}
	// The stored value must live in a plain register: stores read the
	// register file directly, so operand modifiers (-R3, |R3|) must be
	// materialized first.
	vreg := val
	if val.op.Type != sass.OperandReg || val.op.Neg || val.op.Abs {
		r := c.allocFor(t)
		if err := c.move(t, r, val.op); err != nil {
			return err
		}
		c.freeOpnd(val)
		vreg = opnd{op: sass.Reg(r), typ: t, tmp: true}
	}
	addr, err := c.address(p, n.Index, el)
	if err != nil {
		return err
	}
	if el == F64 && t == F32 {
		// Demoted store: widen back before the 64-bit store.
		wide := c.allocPair()
		c.emit(sass.NewInstr(sass.OpF2F, sass.Reg(wide), vreg.op).WithMods("F64", "F32"))
		c.emit(sass.NewInstr(sass.OpSTG, sass.Mem(addr, 0), sass.Reg(wide)).WithMods("E", "64"))
		c.freeReg(F64, wide)
	} else if el == F64 {
		c.emit(sass.NewInstr(sass.OpSTG, sass.Mem(addr, 0), vreg.op).WithMods("E", "64"))
	} else {
		c.emit(sass.NewInstr(sass.OpSTG, sass.Mem(addr, 0), vreg.op).WithMods("E"))
	}
	c.freeOpnd(vreg)
	c.freeReg(I32, addr)
	return nil
}

// address computes &ptr[index] into a fresh register.
func (c *compiler) address(p paramInfo, index Expr, el Type) (int, error) {
	idx, err := c.genOperand(index, I32)
	if err != nil {
		return 0, err
	}
	if idx.typ != I32 {
		return 0, fmt.Errorf("array index must be i32, got %v", idx.typ)
	}
	size := int64(4)
	if el == F64 {
		size = 8
	}
	addr := c.allocReg()
	// addr = index*size + base, with the base pointer read from c[0x0].
	c.emit(sass.NewInstr(sass.OpIMAD, sass.Reg(addr), idx.op, sass.ImmI(size), sass.CBank(0, p.off)))
	c.freeOpnd(idx)
	return addr, nil
}

// atomicAdd emits RED.E.ADD/IADD on a global array element.
func (c *compiler) atomicAdd(n AtomicAddStmt) error {
	p, ok := c.params[n.Ptr]
	if !ok {
		return fmt.Errorf("unknown array parameter %q", n.Ptr)
	}
	el, ok := p.kind.Elem()
	if !ok {
		return fmt.Errorf("parameter %q is not a pointer", n.Ptr)
	}
	if el == F64 {
		return fmt.Errorf("atomicAdd on FP64 arrays is not supported")
	}
	t := c.demote(el)
	val, err := c.genOperand(n.E, t)
	if err != nil {
		return err
	}
	vreg := val
	if val.op.Type != sass.OperandReg || val.op.Neg || val.op.Abs {
		r := c.allocFor(t)
		if err := c.move(t, r, val.op); err != nil {
			return err
		}
		c.freeOpnd(val)
		vreg = opnd{op: sass.Reg(r), typ: t, tmp: true}
	}
	addr, err := c.address(p, n.Index, el)
	if err != nil {
		return err
	}
	mode := "ADD"
	if t == I32 {
		mode = "IADD"
	}
	c.emit(sass.NewInstr(sass.OpRED, sass.Mem(addr, 0), vreg.op).WithMods("E", mode))
	c.freeReg(I32, addr)
	c.freeOpnd(vreg)
	return nil
}

func (c *compiler) forLoop(n ForStmt) error {
	if _, exists := c.vars[n.Var]; exists {
		return fmt.Errorf("loop variable %q shadows existing variable", n.Var)
	}
	ivar := c.allocReg()
	c.vars[n.Var] = varInfo{reg: ivar, typ: I32}
	if err := c.genTo(n.Start, I32, ivar); err != nil {
		return err
	}
	end, err := c.genOperand(n.End, I32)
	if err != nil {
		return err
	}
	// Keep the bound in a register so the loop test is a single ISETP.
	endReg := end
	if end.op.Type != sass.OperandReg {
		r := c.allocReg()
		c.emit(sass.NewInstr(sass.OpMOV, sass.Reg(r), end.op))
		c.freeOpnd(end)
		endReg = opnd{op: sass.Reg(r), typ: I32, tmp: true}
	}
	top, done := c.label("L_for"), c.label("L_endfor")
	pr := c.allocPred()
	c.place(top)
	c.emit(sass.NewInstr(sass.OpISETP, sass.PredOp(pr, false), sass.PredOp(sass.PT, false),
		sass.Reg(ivar), endReg.op, sass.PredOp(sass.PT, false)).WithMods("GE", "AND"))
	c.braIf(pr, false, done)
	if err := c.block(n.Body); err != nil {
		return err
	}
	c.emit(sass.NewInstr(sass.OpIADD, sass.Reg(ivar), sass.Reg(ivar), sass.ImmI(1)))
	c.bra(top)
	c.place(done)
	c.freePred(pr)
	c.freeOpnd(endReg)
	c.freeReg(I32, ivar)
	delete(c.vars, n.Var)
	return nil
}

func (c *compiler) ifStmt(n IfStmt) error {
	pr, neg, tmp, err := c.genPred(n.Cond)
	if err != nil {
		return err
	}
	end := c.label("L_endif")
	target := end
	if len(n.Else) > 0 {
		target = c.label("L_else")
	}
	// Branch to else/end when the condition fails.
	c.braIf(pr, !neg, target)
	if tmp {
		c.freePred(pr)
	}
	if err := c.block(n.Then); err != nil {
		return err
	}
	if len(n.Else) > 0 {
		c.bra(end)
		c.place(target)
		if err := c.block(n.Else); err != nil {
			return err
		}
	}
	c.place(end)
	return nil
}

// ---- expression code generation ----

// genOperand produces a source operand for e. Constants and scalar
// parameters become immediate/CBANK operands (so the corpus exercises the
// analyzer's IMM_DOUBLE and CBANK handling); everything else lands in a
// register.
func (c *compiler) genOperand(e Expr, want Type) (opnd, error) {
	t, flex, err := c.inferType(e)
	if err != nil {
		return opnd{}, err
	}
	t = resolve(t, flex, want)
	if t != want {
		return opnd{}, fmt.Errorf("operand has type %v where %v is required", t, want)
	}
	switch n := e.(type) {
	case ConstF:
		return opnd{op: sass.ImmF(n.V), typ: t}, nil
	case ConstI:
		return opnd{op: sass.ImmI(int64(n.V)), typ: I32}, nil
	case VarRef:
		v := c.vars[n.Name]
		return opnd{op: sass.Reg(v.reg), typ: v.typ}, nil
	case ParamRef:
		p := c.params[n.Name]
		if p.kind == ScalarF64 && c.opts.DemoteF64 {
			r := c.allocReg()
			c.emit(sass.NewInstr(sass.OpF2F, sass.Reg(r), sass.CBank(0, p.off)).WithMods("F32", "F64"))
			return opnd{op: sass.Reg(r), typ: F32, tmp: true}, nil
		}
		return opnd{op: sass.CBank(0, p.off), typ: t}, nil
	case GidExpr:
		return opnd{op: sass.Reg(c.gid()), typ: I32}, nil
	case TidExpr:
		return opnd{op: sass.Reg(c.special(sass.SRTidX)), typ: I32}, nil
	case BidExpr:
		return opnd{op: sass.Reg(c.special(sass.SRCtaidX)), typ: I32}, nil
	case BDimExpr:
		return opnd{op: sass.Reg(c.special(sass.SRNtidX)), typ: I32}, nil
	case GDimExpr:
		return opnd{op: sass.Reg(c.special(sass.SRNctaidX)), typ: I32}, nil
	case UnExpr:
		// Negation/abs of a leaf folds into operand modifiers (-R3, |R3|)
		// or directly into immediates; every value operand kind is
		// foldable, so this never falls through to materialization.
		if n.Op == Neg || n.Op == Abs {
			inner, err := c.genOperand(n.A, t)
			if err != nil {
				return opnd{}, err
			}
			switch inner.op.Type {
			case sass.OperandReg, sass.OperandCBank:
				if n.Op == Neg {
					inner.op.Neg = !inner.op.Neg
				} else {
					inner.op.Abs = true
					inner.op.Neg = false
				}
			case sass.OperandImmDouble:
				if n.Op == Neg {
					inner.op.Imm = -inner.op.Imm
				} else if inner.op.Imm < 0 || math.Signbit(inner.op.Imm) {
					inner.op.Imm = -inner.op.Imm
				}
			case sass.OperandImmInt:
				if n.Op == Neg {
					inner.op.IVal = -inner.op.IVal
				} else if inner.op.IVal < 0 {
					inner.op.IVal = -inner.op.IVal
				}
			default:
				c.freeOpnd(inner)
				return opnd{}, fmt.Errorf("cannot negate %v operand", inner.op.Type)
			}
			inner.typ = t
			return inner, nil
		}
	}
	// General case: compute into a scratch register.
	r := c.allocFor(t)
	if err := c.genTo(e, t, r); err != nil {
		c.freeReg(t, r)
		return opnd{}, err
	}
	return opnd{op: sass.Reg(r), typ: t, tmp: true}, nil
}

// genTo compiles e into register dst of type t. The expression's inferred
// type must agree with t: silent reinterpretation of (say) an FP64 register
// pair as FP32 is exactly the class of bug a kernel compiler must reject.
func (c *compiler) genTo(e Expr, t Type, dst int) error {
	et, flex, err := c.inferType(e)
	if err != nil {
		return err
	}
	if resolve(et, flex, t) != t {
		return fmt.Errorf("cannot assign %v expression to %v destination", et, t)
	}
	switch n := e.(type) {
	case BinExpr:
		return c.genBin(n, t, dst)
	case UnExpr:
		return c.genUn(n, t, dst)
	case FMAExpr:
		return c.genFMAInto(n.A, n.B, n.C, t, dst)
	case SelectExpr:
		return c.genSelect(n, t, dst)
	case LoadExpr:
		return c.genLoad(n, t, dst)
	case SharedLoadExpr:
		return c.genSharedLoad(n, dst)
	case CvtExpr:
		return c.genCvt(n, t, dst)
	case ShflExpr:
		src, err := c.genOperand(n.A, t)
		if err != nil {
			return err
		}
		r, err := c.regOperand(t, src.op)
		if err != nil {
			return err
		}
		c.emit(sass.NewInstr(sass.OpSHFL, sass.Reg(dst), r, sass.ImmI(int64(n.Offset))).WithMods(n.Mode))
		if r != src.op {
			c.freeReg(t, r.Reg)
		}
		c.freeOpnd(src)
		return nil
	case CmpExpr, AndExpr, OrExpr, NotExpr:
		return fmt.Errorf("predicate expression used as value; wrap it in Sel")
	default:
		// Leaf: materialize via MOV(s).
		o, err := c.genOperand(e, t)
		if err != nil {
			return err
		}
		defer c.freeOpnd(o)
		return c.move(t, dst, o.op)
	}
}

// move copies an operand into a register, handling FP64 pairs and operand
// modifiers (integer negation uses two's complement through IADD; FP64
// sign changes go through DADD; FP32 sign bits flip inside MOV's operand
// read).
func (c *compiler) move(t Type, dst int, src sass.Operand) error {
	if t == I32 && src.Neg {
		c.emit(sass.NewInstr(sass.OpIADD, sass.Reg(dst), sass.Reg(sass.RZ), src))
		return nil
	}
	if t != F64 {
		c.emit(sass.NewInstr(sass.OpMOV, sass.Reg(dst), src))
		return nil
	}
	if src.Neg || src.Abs {
		// Sign manipulation must go through an FP64 op.
		c.emit(sass.NewInstr(sass.OpDADD, sass.Reg(dst), src, sass.ImmF(0)))
		return nil
	}
	switch src.Type {
	case sass.OperandReg:
		c.emit(sass.NewInstr(sass.OpMOV, sass.Reg(dst), sass.Reg(src.Reg)))
		c.emit(sass.NewInstr(sass.OpMOV, sass.Reg(dst+1), sass.Reg(src.Reg+1)))
	case sass.OperandImmDouble:
		bits := math.Float64bits(src.Imm)
		c.emit(sass.NewInstr(sass.OpMOV32I, sass.Reg(dst), sass.ImmI(int64(uint32(bits)))))
		c.emit(sass.NewInstr(sass.OpMOV32I, sass.Reg(dst+1), sass.ImmI(int64(uint32(bits>>32)))))
	case sass.OperandCBank:
		c.emit(sass.NewInstr(sass.OpMOV, sass.Reg(dst), src))
		c.emit(sass.NewInstr(sass.OpMOV, sass.Reg(dst+1), sass.CBank(int(src.Bank), int(src.Off)+4)))
	default:
		return fmt.Errorf("cannot move %v into an FP64 pair", src.Type)
	}
	return nil
}

func (c *compiler) genLoad(n LoadExpr, t Type, dst int) error {
	p := c.params[n.Ptr]
	el, _ := p.kind.Elem()
	addr, err := c.address(p, n.Index, el)
	if err != nil {
		return err
	}
	defer c.freeReg(I32, addr)
	switch {
	case el == F64 && t == F32:
		// Demoted load: 64-bit load then narrow (the FP64→FP32 conversion
		// GPU-FPX exposes under optimization).
		wide := c.allocPair()
		c.emit(sass.NewInstr(sass.OpLDG, sass.Reg(wide), sass.Mem(addr, 0)).WithMods("E", "64"))
		c.emit(sass.NewInstr(sass.OpF2F, sass.Reg(dst), sass.Reg(wide)).WithMods("F32", "F64"))
		c.freeReg(F64, wide)
	case el == F64:
		c.emit(sass.NewInstr(sass.OpLDG, sass.Reg(dst), sass.Mem(addr, 0)).WithMods("E", "64"))
	default:
		c.emit(sass.NewInstr(sass.OpLDG, sass.Reg(dst), sass.Mem(addr, 0)).WithMods("E"))
	}
	return nil
}

// sharedAddr computes the byte offset of shared[idx] into a fresh register.
func (c *compiler) sharedAddr(name string, index Expr) (int, error) {
	sh, ok := c.shared[name]
	if !ok {
		return 0, fmt.Errorf("unknown shared array %q", name)
	}
	idx, err := c.genOperand(index, I32)
	if err != nil {
		return 0, err
	}
	addr := c.allocReg()
	c.emit(sass.NewInstr(sass.OpIMAD, sass.Reg(addr), idx.op, sass.ImmI(4), sass.ImmI(int64(sh.off))))
	c.freeOpnd(idx)
	return addr, nil
}

func (c *compiler) genSharedLoad(n SharedLoadExpr, dst int) error {
	addr, err := c.sharedAddr(n.Name, n.Index)
	if err != nil {
		return err
	}
	c.emit(sass.NewInstr(sass.OpLDS, sass.Reg(dst), sass.Mem(addr, 0)))
	c.freeReg(I32, addr)
	return nil
}

func (c *compiler) sharedStore(n SharedStoreStmt) error {
	val, err := c.genOperand(n.E, F32)
	if err != nil {
		return err
	}
	vreg := val
	if val.op.Type != sass.OperandReg || val.op.Neg || val.op.Abs {
		r := c.allocReg()
		if err := c.move(F32, r, val.op); err != nil {
			return err
		}
		c.freeOpnd(val)
		vreg = opnd{op: sass.Reg(r), typ: F32, tmp: true}
	}
	addr, err := c.sharedAddr(n.Name, n.Index)
	if err != nil {
		return err
	}
	c.emit(sass.NewInstr(sass.OpSTS, sass.Mem(addr, 0), vreg.op))
	c.freeReg(I32, addr)
	c.freeOpnd(vreg)
	return nil
}

func (c *compiler) genCvt(n CvtExpr, t Type, dst int) error {
	from, flex, err := c.inferType(n.A)
	if err != nil {
		return err
	}
	from = resolve(from, flex, F32)
	src, err := c.genOperand(n.A, from)
	if err != nil {
		return err
	}
	defer c.freeOpnd(src)
	switch {
	case from == t:
		return c.move(t, dst, src.op)
	case from == I32 && t == F32:
		c.emit(sass.NewInstr(sass.OpI2F, sass.Reg(dst), src.op))
	case from == I32 && t == F64:
		c.emit(sass.NewInstr(sass.OpI2F, sass.Reg(dst), src.op).WithMods("F64"))
	case from == F32 && t == F64:
		c.emit(sass.NewInstr(sass.OpF2F, sass.Reg(dst), src.op).WithMods("F64", "F32"))
	case from == F64 && t == F32:
		in := sass.NewInstr(sass.OpF2F, sass.Reg(dst), src.op).WithMods("F32", "F64")
		if c.opts.FastMath {
			// FTZ applies to narrowing conversions too under fast math.
			in = in.WithMods("F32", "F64", "FTZ")
		}
		c.emit(in)
	case from == F32 && t == I32:
		c.emit(sass.NewInstr(sass.OpF2I, sass.Reg(dst), src.op))
	case from == F64 && t == I32:
		c.emit(sass.NewInstr(sass.OpF2I, sass.Reg(dst), src.op).WithMods("F64"))
	case from == F32 && t == F16:
		c.emit(sass.NewInstr(sass.OpF2F, sass.Reg(dst), src.op).WithMods("F16", "F32"))
	case from == F16 && t == F32:
		c.emit(sass.NewInstr(sass.OpF2F, sass.Reg(dst), src.op).WithMods("F32", "F16"))
	default:
		return fmt.Errorf("unsupported conversion %v -> %v", from, t)
	}
	return nil
}

func (c *compiler) genBin(n BinExpr, t Type, dst int) error {
	if n.Op == Div {
		return c.genDiv(n.A, n.B, t, dst)
	}
	// FMA contraction: under fast-math, a*b+c / a*b-c / c+a*b contract
	// into FFMA/DFMA (NVIDIA fast-math effect #3).
	if c.opts.FastMath && t.IsFloat() && (n.Op == Add || n.Op == Sub) {
		if m, ok := n.A.(BinExpr); ok && m.Op == Mul {
			cArg := n.B
			if n.Op == Sub {
				cArg = NegE(n.B)
			}
			return c.genFMAInto(m.A, m.B, cArg, t, dst)
		}
		if m, ok := n.B.(BinExpr); ok && m.Op == Mul && n.Op == Add {
			return c.genFMAInto(m.A, m.B, n.A, t, dst)
		}
	}
	a, err := c.genOperand(n.A, t)
	if err != nil {
		return err
	}
	b, err := c.genOperand(n.B, t)
	if err != nil {
		c.freeOpnd(a)
		return err
	}
	defer c.freeOpnd(a)
	defer c.freeOpnd(b)

	if t == I32 {
		return c.genBinInt(n.Op, dst, a.op, b.op)
	}
	switch n.Op {
	case Add, Sub:
		bop := b.op
		if n.Op == Sub {
			bop.Neg = !bop.Neg
		}
		c.emit(c.fpInstr(t, opAdd, sass.Reg(dst), a.op, bop))
	case Mul:
		c.emit(c.fpInstr(t, opMul, sass.Reg(dst), a.op, b.op))
	case Min, Max:
		return c.genMinMax(t, n.Op == Min, dst, a.op, b.op)
	default:
		return fmt.Errorf("unsupported float operator %v", n.Op)
	}
	return nil
}

type fpOpKind uint8

const (
	opAdd fpOpKind = iota
	opMul
	opFMA
)

// fpInstr builds the arithmetic instruction for a float type, attaching the
// FTZ modifier under fast-math (NVIDIA fast-math effect #1).
func (c *compiler) fpInstr(t Type, kind fpOpKind, operands ...sass.Operand) sass.Instr {
	var op sass.Op
	switch t {
	case F64:
		op = [...]sass.Op{sass.OpDADD, sass.OpDMUL, sass.OpDFMA}[kind]
	case F16:
		op = [...]sass.Op{sass.OpHADD2, sass.OpHMUL2, sass.OpHFMA2}[kind]
	default:
		op = [...]sass.Op{sass.OpFADD, sass.OpFMUL, sass.OpFFMA}[kind]
	}
	in := sass.NewInstr(op, operands...)
	if t == F32 && c.opts.FastMath {
		in = in.WithMods("FTZ")
	}
	return in
}

func (c *compiler) genBinInt(op BinOp, dst int, a, b sass.Operand) error {
	switch op {
	case Add, Sub:
		if op == Sub {
			b.Neg = !b.Neg
		}
		c.emit(sass.NewInstr(sass.OpIADD, sass.Reg(dst), a, b))
	case Mul:
		c.emit(sass.NewInstr(sass.OpIMAD, sass.Reg(dst), a, b, sass.Reg(sass.RZ)))
	case Shl:
		c.emit(sass.NewInstr(sass.OpSHL, sass.Reg(dst), a, b))
	case Shr:
		c.emit(sass.NewInstr(sass.OpSHR, sass.Reg(dst), a, b))
	case AndB:
		c.emit(sass.NewInstr(sass.OpLOP, sass.Reg(dst), a, b).WithMods("AND"))
	case OrB:
		c.emit(sass.NewInstr(sass.OpLOP, sass.Reg(dst), a, b).WithMods("OR"))
	case XorB:
		c.emit(sass.NewInstr(sass.OpLOP, sass.Reg(dst), a, b).WithMods("XOR"))
	case Min, Max:
		pr := c.allocPred()
		mod := "LT"
		if op == Max {
			mod = "GT"
		}
		c.emit(sass.NewInstr(sass.OpISETP, sass.PredOp(pr, false), sass.PredOp(sass.PT, false),
			a, b, sass.PredOp(sass.PT, false)).WithMods(mod, "AND"))
		c.emit(sass.NewInstr(sass.OpSEL, sass.Reg(dst), a, b, sass.PredOp(pr, false)))
		c.freePred(pr)
	default:
		return fmt.Errorf("unsupported integer operator %v", op)
	}
	return nil
}

// genMinMax emits FMNMX for FP32 (with IEEE-2008 NaN dropping) and a
// DSETP+SEL sequence for FP64 (which has no min/max opcode in SASS).
func (c *compiler) genMinMax(t Type, min bool, dst int, a, b sass.Operand) error {
	if t == F32 || t == F16 {
		sel := sass.PredOp(sass.PT, !min) // PT → min, !PT → max
		in := sass.NewInstr(sass.OpFMNMX, sass.Reg(dst), a, b, sel)
		if t == F32 && c.opts.FastMath {
			in = in.WithMods("FTZ")
		}
		c.emit(in)
		return nil
	}
	// FP64: compare, then select each word of the pair.
	ra, rb := a, b
	var err error
	if ra, err = c.regOperand(F64, ra); err != nil {
		return err
	}
	if rb, err = c.regOperand(F64, rb); err != nil {
		return err
	}
	pr := c.allocPred()
	mod := "LT"
	if !min {
		mod = "GT"
	}
	c.emit(sass.NewInstr(sass.OpDSETP, sass.PredOp(pr, false), sass.PredOp(sass.PT, false),
		ra, rb, sass.PredOp(sass.PT, false)).WithMods(mod, "AND"))
	c.emit(sass.NewInstr(sass.OpSEL, sass.Reg(dst), sass.Reg(ra.Reg), sass.Reg(rb.Reg), sass.PredOp(pr, false)))
	c.emit(sass.NewInstr(sass.OpSEL, sass.Reg(dst+1), sass.Reg(ra.Reg+1), sass.Reg(rb.Reg+1), sass.PredOp(pr, false)))
	c.freePred(pr)
	if ra != a {
		c.freeReg(F64, ra.Reg)
	}
	if rb != b {
		c.freeReg(F64, rb.Reg)
	}
	return nil
}

// regOperand forces an operand into a register (pair) if it is not one.
func (c *compiler) regOperand(t Type, o sass.Operand) (sass.Operand, error) {
	if o.Type == sass.OperandReg && !o.Neg && !o.Abs {
		return o, nil
	}
	r := c.allocFor(t)
	if err := c.move(t, r, o); err != nil {
		return o, err
	}
	return sass.Reg(r), nil
}

func (c *compiler) genFMAInto(a, b, cc Expr, t Type, dst int) error {
	oa, err := c.genOperand(a, t)
	if err != nil {
		return err
	}
	ob, err := c.genOperand(b, t)
	if err != nil {
		c.freeOpnd(oa)
		return err
	}
	oc, err := c.genOperand(cc, t)
	if err != nil {
		c.freeOpnd(oa)
		c.freeOpnd(ob)
		return err
	}
	defer c.freeOpnd(oa)
	defer c.freeOpnd(ob)
	defer c.freeOpnd(oc)
	if t == I32 {
		c.emit(sass.NewInstr(sass.OpIMAD, sass.Reg(dst), oa.op, ob.op, oc.op))
		return nil
	}
	c.emit(c.fpInstr(t, opFMA, sass.Reg(dst), oa.op, ob.op, oc.op))
	return nil
}

func (c *compiler) genUn(n UnExpr, t Type, dst int) error {
	switch n.Op {
	case Neg, Abs:
		// genOperand folds the sign change into the operand itself (it
		// never re-enters genUn), so a move completes the job.
		o, err := c.genOperand(n, t)
		if err != nil {
			return err
		}
		defer c.freeOpnd(o)
		return c.move(t, dst, o.op)
	case Sqrt, Rsqrt, Rcp, Exp, Log, Sin, Cos:
		return c.genMufu(n, t, dst)
	default:
		return fmt.Errorf("unsupported unary operator %v", n.Op)
	}
}

func (c *compiler) genSelect(n SelectExpr, t Type, dst int) error {
	pr, neg, tmp, err := c.genPred(n.Cond)
	if err != nil {
		return err
	}
	if tmp {
		defer c.freePred(pr)
	}
	a, err := c.genOperand(n.A, t)
	if err != nil {
		return err
	}
	b, err := c.genOperand(n.B, t)
	if err != nil {
		c.freeOpnd(a)
		return err
	}
	defer c.freeOpnd(a)
	defer c.freeOpnd(b)
	p := sass.PredOp(pr, neg)
	switch t {
	case F64:
		ra, err := c.regOperand(F64, a.op)
		if err != nil {
			return err
		}
		rb, err := c.regOperand(F64, b.op)
		if err != nil {
			return err
		}
		c.emit(sass.NewInstr(sass.OpSEL, sass.Reg(dst), sass.Reg(ra.Reg), sass.Reg(rb.Reg), p))
		c.emit(sass.NewInstr(sass.OpSEL, sass.Reg(dst+1), sass.Reg(ra.Reg+1), sass.Reg(rb.Reg+1), p))
		if ra != a.op {
			c.freeReg(F64, ra.Reg)
		}
		if rb != b.op {
			c.freeReg(F64, rb.Reg)
		}
	case I32:
		c.emit(sass.NewInstr(sass.OpSEL, sass.Reg(dst), a.op, b.op, p))
	default:
		// FSEL — one of the control-flow opcodes the analyzer tracks.
		c.emit(sass.NewInstr(sass.OpFSEL, sass.Reg(dst), a.op, b.op, p))
	}
	return nil
}

// ---- predicates ----

// genPred compiles a predicate expression to (register, negated?, scratch?).
func (c *compiler) genPred(e Expr) (pr int, neg, tmp bool, err error) {
	switch n := e.(type) {
	case CmpExpr:
		p, err := c.cmpInto(n, -1, "AND")
		return p, false, true, err
	case NotExpr:
		pr, neg, tmp, err = c.genPred(n.A)
		return pr, !neg, tmp, err
	case AndExpr:
		return c.combine(n.A, n.B, "AND")
	case OrExpr:
		return c.combine(n.A, n.B, "OR")
	default:
		return 0, false, false, fmt.Errorf("expression %T is not a predicate", e)
	}
}

// combine builds A∧B or A∨B. When one side is a comparison, the comparison's
// SETP combiner input (Pc) folds the other side in — the idiomatic SASS
// shape. Otherwise both sides materialize and an extra SETP merges them.
func (c *compiler) combine(a, b Expr, mode string) (int, bool, bool, error) {
	// Prefer a comparison on the right so it can consume the left result.
	if _, ok := b.(CmpExpr); !ok {
		if _, ok := a.(CmpExpr); ok {
			a, b = b, a
		}
	}
	if cmp, ok := b.(CmpExpr); ok {
		pa, na, ta, err := c.genPred(a)
		if err != nil {
			return 0, false, false, err
		}
		p, err := c.cmpIntoPc(cmp, sass.PredOp(pa, na), mode)
		if ta {
			c.freePred(pa)
		}
		return p, false, true, err
	}
	// General case: materialize both predicates into integers and merge.
	pa, na, ta, err := c.genPred(a)
	if err != nil {
		return 0, false, false, err
	}
	pb, nb, tb, err := c.genPred(b)
	if err != nil {
		return 0, false, false, err
	}
	ra, rb := c.allocReg(), c.allocReg()
	c.emit(sass.NewInstr(sass.OpSEL, sass.Reg(ra), sass.ImmI(1), sass.ImmI(0), sass.PredOp(pa, na)))
	c.emit(sass.NewInstr(sass.OpSEL, sass.Reg(rb), sass.ImmI(1), sass.ImmI(0), sass.PredOp(pb, nb)))
	lop := "AND"
	if mode == "OR" {
		lop = "OR"
	}
	c.emit(sass.NewInstr(sass.OpLOP, sass.Reg(ra), sass.Reg(ra), sass.Reg(rb)).WithMods(lop))
	if ta {
		c.freePred(pa)
	}
	if tb {
		c.freePred(pb)
	}
	p := c.allocPred()
	c.emit(sass.NewInstr(sass.OpISETP, sass.PredOp(p, false), sass.PredOp(sass.PT, false),
		sass.Reg(ra), sass.ImmI(0), sass.PredOp(sass.PT, false)).WithMods("NE", "AND"))
	c.freeReg(I32, ra)
	c.freeReg(I32, rb)
	return p, false, true, nil
}

// cmpInto emits a SETP for the comparison; when into >= 0 that predicate
// register is used, otherwise a scratch one is allocated.
func (c *compiler) cmpInto(n CmpExpr, into int, mode string) (int, error) {
	return c.cmpIntoPcReg(n, sass.PredOp(sass.PT, false), mode, into)
}

func (c *compiler) cmpIntoPc(n CmpExpr, pc sass.Operand, mode string) (int, error) {
	return c.cmpIntoPcReg(n, pc, mode, -1)
}

func (c *compiler) cmpIntoPcReg(n CmpExpr, pc sass.Operand, mode string, into int) (int, error) {
	t, flex, err := c.joinTypes(n.A, n.B)
	if err != nil {
		return 0, err
	}
	t = resolve(t, flex, F32)
	a, err := c.genOperand(n.A, t)
	if err != nil {
		return 0, err
	}
	b, err := c.genOperand(n.B, t)
	if err != nil {
		c.freeOpnd(a)
		return 0, err
	}
	defer c.freeOpnd(a)
	defer c.freeOpnd(b)
	p := into
	if p < 0 {
		p = c.allocPred()
	}
	var op sass.Op
	switch t {
	case F64:
		op = sass.OpDSETP
	case I32:
		op = sass.OpISETP
	default:
		op = sass.OpFSETP
	}
	c.emit(sass.NewInstr(op, sass.PredOp(p, false), sass.PredOp(sass.PT, false),
		a.op, b.op, pc).WithMods(n.Op.mod(), mode))
	return p, nil
}

// ---- special registers ----

func (c *compiler) gid() int {
	if c.gidReg >= 0 {
		return c.gidReg
	}
	r := c.allocReg()
	t1, t2 := c.allocReg(), c.allocReg()
	c.emit(sass.NewInstr(sass.OpS2R, sass.Reg(t1), sass.Special(sass.SRCtaidX)))
	c.emit(sass.NewInstr(sass.OpS2R, sass.Reg(t2), sass.Special(sass.SRNtidX)))
	c.emit(sass.NewInstr(sass.OpIMAD, sass.Reg(r), sass.Reg(t1), sass.Reg(t2), sass.Reg(sass.RZ)))
	c.emit(sass.NewInstr(sass.OpS2R, sass.Reg(t1), sass.Special(sass.SRTidX)))
	c.emit(sass.NewInstr(sass.OpIADD, sass.Reg(r), sass.Reg(r), sass.Reg(t1)))
	c.freeReg(I32, t1)
	c.freeReg(I32, t2)
	c.gidReg = r
	return r
}

func (c *compiler) special(sr sass.SpecialReg) int {
	if c.specials == nil {
		c.specials = make(map[sass.SpecialReg]int)
	}
	if r, ok := c.specials[sr]; ok {
		return r
	}
	r := c.allocReg()
	c.emit(sass.NewInstr(sass.OpS2R, sass.Reg(r), sass.Special(sr)))
	c.specials[sr] = r
	return r
}
