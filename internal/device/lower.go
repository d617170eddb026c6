package device

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// This file implements the lowering pass: each sass.Instr is compiled once
// per kernel into a specialized thunk closure with operand access resolved at
// lower time (register vs immediate vs constant bank vs RZ, sign modifiers as
// bit masks, FTZ and compare modifiers baked in). The executor's inner loop
// becomes indexed thunk dispatch instead of a per-lane opcode switch.
// One switch on the opcode, lowerInstr (lower_ops.go), builds every site's
// thunk, with one no-op rule before it and one broadcast rule after it.
// Each site has exactly one compiled form, which per-instruction stepping
// and fused region bodies share.
//
// Correctness contract: a thunk must be observationally identical to the
// corresponding executor.lane / shfl / hmma path — same register and memory
// writes bit for bit, same panics, same side effects. Each tier owns only
// operand access: a lane's value comes from the one definition every tier
// calls (add32, mul32, fma32, add64, mul64, mufuEval, f2fEval, redEval,
// shflLane in exec.go; TestFloatArithmeticOnlyInDefinitions rejects FP
// arithmetic anywhere else), and each modifier is decoded once, into
// kernelMeta. The differential suites run the whole corpus under the
// reference interpreter and the production tier and assert byte-identical
// reports and cycle counts.

// tier is an executor implementation. Every production launch, including
// chaos and campaign runs (whose fault planes are injected calls), runs
// tierFused; the others exist only for tests.
type tier uint8

const (
	// tierFused dispatches fused superinstructions: straight-line runs of
	// thunks collapsed into single region bodies (see fuse.go).
	// Regions whose bodies hold injected calls step one instruction at a
	// time, as tierLowered does.
	tierFused tier = iota
	// tierLowered dispatches the same thunks (direct-threaded) one
	// instruction at a time.
	tierLowered
	// tierInterp is the per-lane interpreter switch: the reference the
	// differential suites hold the thunks to.
	tierInterp
)

// testTier is the tier every launch runs on; only ForceTierForTest moves
// it off tierFused.
var testTier atomic.Uint32

// ForceTierForTest is for tests only. It makes every later launch in the
// process run on the named executor tier — "interp" (the per-lane reference
// interpreter), "lowered" (thunks stepped one instruction at a time) or
// "fused" (production) — and returns a function that restores the previous
// tier. The cross-package differential suites use it to run one workload
// on the reference and on the production tier; it panics on any other
// name.
func ForceTierForTest(name string) (restore func()) {
	var t tier
	switch name {
	case "fused":
		t = tierFused
	case "lowered":
		t = tierLowered
	case "interp":
		t = tierInterp
	default:
		panic(fmt.Sprintf("device: unknown executor tier %q", name))
	}
	old := testTier.Swap(uint32(t))
	return func() { testTier.Store(old) }
}

// thunk executes one lowered instruction for the executing lanes of a warp.
type thunk func(ex *executor, w *Warp, exec uint32)

// loweredKernel is the thunk program for one kernel, indexed by PC.
type loweredKernel struct {
	thunks []thunk
	// instrs counts the kernel's lowered instructions, folded into the
	// global counter when the kernel's program is built.
	instrs uint64
}

var lowKernels, lowInstrs atomic.Uint64

// LowerStats is a snapshot of the process-wide lowering counters.
type LowerStats struct {
	// Kernels and Instrs count distinct lowered kernels and instructions.
	Kernels, Instrs uint64
}

// LowerStatsSnapshot returns the current lowering counters.
func LowerStatsSnapshot() LowerStats {
	return LowerStats{Kernels: lowKernels.Load(), Instrs: lowInstrs.Load()}
}

// Prelower builds a kernel's program ahead of its first launch, so the
// cc compile path can hand sweep workers a ready-to-run kernel.
func Prelower(k *sass.Kernel) {
	// Bake the listing strings while the kernel is still private: location
	// tables render every instrumented site's SASS text on each run, and
	// the cache turns that into a string-header copy.
	for i := range k.Instrs {
		k.Instrs[i].Render()
	}
	programFor(k)
}

const fullExec = ^uint32(0)

func lowerKernel(k *sass.Kernel, m *kernelMeta) *loweredKernel {
	lk := &loweredKernel{
		thunks: make([]thunk, len(k.Instrs)),
		instrs: uint64(len(k.Instrs)),
	}
	if m.verr != nil {
		// Lowering itself indexes operands; an invalid kernel never runs
		// (the launch gate rejects it first), so an empty program suffices.
		return lk
	}
	for pc := range k.Instrs {
		lk.thunks[pc] = lowerInstr(k, pc, m)
	}
	return lk
}

// ---- compiled operands ----
//
// src is the one compiled form of a source operand. The thunks and
// injected tool code (ToolSrc, inject_lower.go) all read through it.
// lowerSrc resolves the operand's access class once, at lower time: a
// per-lane register, a constant-bank read once per dynamic execution
// (warp-invariant), or a constant baked with its modifiers. W is
// the width the reader holds: uint32 for FP32 and integer sources, uint16
// for FP16, uint64 for FP64 and for tool code, which takes any format.

// word is the raw-bits width of a compiled operand.
type word interface{ ~uint16 | ~uint32 | ~uint64 }

// fmtInt is the integer source format: Neg negates in two's complement,
// IMM_DOUBLE truncates and GENERIC reads 0. It has no E_fp encoding.
const fmtInt fpval.Format = fpval.NumFormats

// src is a compiled source operand in format fmt. The sign masks and FTZ,
// or the integer negation, apply to register and constant-bank reads;
// baked constants carry them already.
type src[W word] struct {
	reg       int32 // >= 0: register index into the lane row (an FP64 pair's low word)
	cb        bool  // constant-bank operand (reg < 0)
	fmt       fpval.Format
	ftz       bool // FP32: flush subnormal reads
	ineg      bool // integer: two's-complement negation
	bank, off int
	neg, abs  W // the format's sign bit when the operand has Neg or Abs
	bits      W // baked value when reg < 0 && !cb
}

// lowerSrc compiles op as a source in format f (fmtInt for integer
// sources), flushing FP32 subnormals when ftz is set.
func lowerSrc[W word](op *sass.Operand, f fpval.Format, ftz bool) src[W] {
	s := src[W]{reg: -1, fmt: f, ftz: ftz}
	if f == fmtInt {
		s.ineg = op.Neg
	} else {
		sign := uint64(1) << 31
		switch f {
		case fpval.FP64:
			sign = 1 << 63
		case fpval.FP16:
			sign = 1 << 15
		}
		if op.Neg {
			s.neg = W(sign)
		}
		if op.Abs {
			s.abs = W(sign)
		}
	}
	switch {
	case op.IsPlainReg():
		s.reg = int32(op.Reg)
	case op.Type == sass.OperandCBank:
		s.cb, s.bank, s.off = true, int(op.Bank), int(op.Off)
	default:
		s.bits = s.apply(W(constBits(op, f)))
	}
	return s
}

// constBits decodes a compile-time operand to raw bits in format f, the way
// the interpreter's srcBits32, srcInt, srcF64 and srcF16 read it: IMM_DOUBLE
// rounds to the format (integer sources truncate it), GENERIC follows
// Listing 2's text rules (integer sources read 0), and IMM_INT is a raw
// 32-bit pattern (FP64 reads 0, FP16 its low half). RZ and the kinds
// without a value read 0.
func constBits(op *sass.Operand, f fpval.Format) uint64 {
	switch op.Type {
	case sass.OperandImmDouble:
		switch f {
		case fmtInt:
			return uint64(uint32(int32(op.Imm)))
		case fpval.FP64:
			return math.Float64bits(op.Imm)
		case fpval.FP16:
			return uint64(fpval.F16FromFloat32(float32(op.Imm)))
		}
		return uint64(math.Float32bits(float32(op.Imm)))
	case sass.OperandGeneric:
		if f == fmtInt {
			return 0
		}
		return genericBits(op.Text, f)
	case sass.OperandImmInt:
		if f == fpval.FP64 {
			return 0
		}
		return uint64(uint32(op.IVal))
	}
	return 0
}

// sign applies the Neg and Abs masks: |x| first, then negation.
func (s *src[W]) sign(v W) W { return (v &^ s.abs) ^ s.neg }

// apply applies all of the operand's modifiers to raw bits.
func (s *src[W]) apply(v W) W {
	v = s.sign(v)
	if s.ftz {
		v = W(fpval.Flush32(uint32(v)))
	}
	if s.ineg {
		v = -v
	}
	return v
}

// entry resolves the operand's warp-invariant value at closure entry: a
// constant-bank read with the operand's modifiers applied, or the baked
// constant. Meaningless (and unused) for register operands. It stays small
// enough to inline.
func (s *src[W]) entry(d *Device) W {
	if !s.cb {
		return s.bits
	}
	return s.cbank(d)
}

// cbank reads a constant-bank operand (both words of an FP64 pair) and
// applies its modifiers.
func (s *src[W]) cbank(d *Device) W {
	v := uint64(d.CBankRead(s.bank, s.off))
	if s.fmt == fpval.FP64 {
		v = fpval.Pair64(uint32(v), d.CBankRead(s.bank, s.off+4))
	}
	return s.apply(W(v))
}

// laneV32 reads an operand for one lane as raw 32-bit value with FP sign
// masks applied; ev is the entry-resolved value for non-register operands.
func laneV32(s *src[uint32], r []uint32, ev uint32) uint32 {
	if s.reg >= 0 {
		b := s.sign(r[s.reg])
		if s.ftz {
			b = fpval.Flush32(b)
		}
		return b
	}
	return ev
}

func laneF32(s *src[uint32], r []uint32, ev uint32) float32 {
	return math.Float32frombits(laneV32(s, r, ev))
}

// laneI32 reads an operand with integer-source semantics (Neg negates).
func laneI32(s *src[uint32], r []uint32, ev uint32) uint32 {
	if s.reg >= 0 {
		v := r[s.reg]
		if s.ineg {
			v = uint32(-int32(v))
		}
		return v
	}
	return ev
}

// laneV64 reads an FP64 operand for one lane: the register pair with the
// sign masks applied; ev is the entry-resolved value for other operands.
func laneV64(s *src[uint64], r []uint32, ev uint64) uint64 {
	if s.reg >= 0 {
		return s.sign(fpval.Pair64(r[s.reg], r[s.reg+1]))
	}
	return ev
}

func laneF64(s *src[uint64], r []uint32, ev uint64) float64 {
	return math.Float64frombits(laneV64(s, r, ev))
}

// laneV16 reads an FP16 operand for one lane from its register's low half;
// the sign masks act on the FP16 sign bit.
func laneV16(s *src[uint16], r []uint32, ev uint16) uint16 {
	if s.reg >= 0 {
		return s.sign(uint16(r[s.reg]))
	}
	return ev
}

func laneF16(s *src[uint16], r []uint32, ev uint16) float32 {
	return fpval.F16ToFloat32(laneV16(s, r, ev))
}

// srcP is a lowered predicate source: the register read and an XOR mask
// that negates it. Non-predicate operands read PT, which is true.
type srcP struct {
	pred int
	neg  uint32
}

func lowerSrcP(op *sass.Operand) srcP {
	if op.Type != sass.OperandPred {
		return srcP{pred: sass.PT}
	}
	return srcP{pred: int(op.Pred), neg: negMask(op.NegPred)}
}

// mask returns the source's value for every lane of the warp.
func (p *srcP) mask(w *Warp) uint32 { return w.pmask[p.pred] ^ p.neg }

// lowAddr is a lowered memory address [Rn+off].
type lowAddr struct {
	reg int // -1 for an RZ base (constant address)
	off uint32
}

func lowerAddr(op *sass.Operand) lowAddr {
	if op.Reg == sass.RZ {
		return lowAddr{reg: -1, off: uint32(op.IVal)}
	}
	return lowAddr{reg: op.Reg, off: uint32(op.IVal)}
}

func (a *lowAddr) lane(w *Warp, l int) uint32 {
	if a.reg < 0 {
		return a.off
	}
	return w.regs[l][a.reg] + a.off
}

// ---- result helpers ----

// out32 converts an FP32 result to register bits, flushing like putF32.
func out32(v float32, ftz bool) uint32 {
	b := math.Float32bits(v)
	if ftz {
		b = fpval.Flush32(b)
	}
	return b
}

// eachLane runs body for every executing lane, with the common all-lanes
// case free of mask tests.
func eachLane(exec uint32, body func(l int)) {
	if exec == fullExec {
		for l := 0; l < WarpSize; l++ {
			body(l)
		}
		return
	}
	for m := exec; m != 0; m &= m - 1 {
		body(bits.TrailingZeros32(m))
	}
}

func nopThunk(*executor, *Warp, uint32) {}

// setpCore is a compiled SETP's predicate side, shared by the FSETP, ISETP
// and DSETP thunks.
type setpCore struct {
	want   setMasks
	comb   uint8
	pd, pq int32 // -1 when absent or PT
	ps     srcP
}

func lowerSetpCore(in *sass.Instr, m *kernelMeta, pc int) setpCore {
	c := setpCore{want: setMasksOf(m.cmp[pc]), comb: m.sub[pc], pd: -1, pq: -1}
	if p := in.Operands[0].Pred; p != sass.PT {
		c.pd = int32(p)
	}
	if q := &in.Operands[1]; q.Type == sass.OperandPred && q.Pred != sass.PT {
		c.pq = int32(q.Pred)
	}
	c.ps = lowerSrcP(&in.Operands[len(in.Operands)-1])
	return c
}

// write combines the compare's result over exec with the combiner input
// and writes it to pd, its complement to pq. The input is read before
// either write, so a SETP whose input is its own destination sees the old
// value, as stepping each lane would.
func (s *setpCore) write(w *Warp, exec uint32, o outcomes) {
	c, p := s.want.holds(exec, o), s.ps.mask(w)
	if s.pd >= 0 {
		w.writePred(s.pd, exec, combine(s.comb, c, p))
	}
	if s.pq >= 0 {
		w.writePred(s.pq, exec, combine(s.comb, exec&^c, p))
	}
}

// combine applies a SETP combiner (AND, OR, XOR) to lane masks; the
// interpreter passes single bits.
func combine(comb uint8, x, p uint32) uint32 {
	switch comb {
	case subSetpOr:
		return x | p
	case subSetpXor:
		return x ^ p
	}
	return x & p
}
