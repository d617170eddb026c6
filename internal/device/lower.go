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
// Chainable lane-local sites get their mop closure (fuse_ops.go) as their
// thunk; the rest are built in lower_ops.go. Each site has exactly one
// compiled form, which per-instruction stepping and fused region bodies
// share.
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
	// isNop marks the sites lowered to no-ops, whose thunks the fusion
	// pass leaves out of region bodies.
	isNop []bool
	// instrs counts the kernel's lowered instructions, folded into the
	// global counter when the kernel's program is built.
	instrs uint64
}

// nop records pc as a no-op site and returns its thunk.
func (lk *loweredKernel) nop(pc int) thunk {
	lk.isNop[pc] = true
	return nopThunk
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
		isNop:  make([]bool, len(k.Instrs)),
		instrs: uint64(len(k.Instrs)),
	}
	if m.verr != nil {
		// Lowering itself indexes operands; an invalid kernel never runs
		// (the launch gate rejects it first), so an empty program suffices.
		return lk
	}
	for pc := range k.Instrs {
		lk.thunks[pc] = lowerInstr(k, pc, m, lk)
	}
	return lk
}

// ---- lowered operand sources ----
//
// Each source type resolves the operand class once at lower time. Compile-
// time constants bake modifiers directly into the stored bits; constant-
// bank reads are fetched once per dynamic execution (warp-invariant);
// registers are read per lane with the sign masks applied unconditionally.
// 32-bit sources are mopSrc (fuse_ops.go), whichever form reads them.

// src64 is a lowered FP64 source (register pair convention).
type src64 struct {
	reg       int
	neg, abs  uint64
	cb        bool
	bank, off int
	bits      uint64
}

func lowerSrc64(op *sass.Operand) src64 {
	neg, abs := op.SignMasks64()
	s := src64{reg: -1, neg: neg, abs: abs}
	switch {
	case op.IsPlainReg():
		s.reg = op.Reg
		return s
	case op.Type == sass.OperandCBank:
		s.cb = true
		s.bank, s.off = op.Bank, op.Off
		return s
	}
	var raw uint64
	switch op.Type {
	case sass.OperandImmDouble:
		raw = math.Float64bits(op.Imm)
	case sass.OperandGeneric:
		raw = genericBits(op.Gen, fpval.FP64)
	}
	s.bits = s.apply(raw)
	return s
}

func (s *src64) apply(raw uint64) uint64 { return (raw &^ s.abs) ^ s.neg }

func (s *src64) uniform() bool { return s.reg < 0 }

func (s *src64) fetch(d *Device) uint64 {
	if !s.cb {
		return s.bits
	}
	return s.apply(fpval.Pair64(d.CBankRead(s.bank, s.off), d.CBankRead(s.bank, s.off+4)))
}

func (s *src64) lane(w *Warp, l int, uni uint64) uint64 {
	if s.reg >= 0 {
		r := w.regs[l]
		return s.apply(fpval.Pair64(r[s.reg], r[s.reg+1]))
	}
	return uni
}

func (s *src64) f64(w *Warp, l int, uni uint64) float64 {
	return math.Float64frombits(s.lane(w, l, uni))
}

// src16 is a lowered FP16 source; sign modifiers act on the FP16 sign bit.
type src16 struct {
	reg       int
	neg, abs  uint16
	cb        bool
	bank, off int
	bits      uint16
}

func lowerSrc16(op *sass.Operand) src16 {
	neg, abs := op.SignMasks16()
	s := src16{reg: -1, neg: neg, abs: abs}
	switch {
	case op.IsPlainReg():
		s.reg = op.Reg
		return s
	case op.Type == sass.OperandCBank:
		s.cb = true
		s.bank, s.off = op.Bank, op.Off
		return s
	}
	var raw uint16
	switch op.Type {
	case sass.OperandImmDouble:
		raw = fpval.F16FromFloat32(float32(op.Imm))
	case sass.OperandGeneric:
		raw = uint16(genericBits(op.Gen, fpval.FP16))
	case sass.OperandImmInt:
		raw = uint16(uint32(op.IVal))
	}
	s.bits = s.apply(raw)
	return s
}

func (s *src16) apply(raw uint16) uint16 { return (raw &^ s.abs) ^ s.neg }

func (s *src16) uniform() bool { return s.reg < 0 }

func (s *src16) fetch(d *Device) uint16 {
	if !s.cb {
		return s.bits
	}
	return s.apply(uint16(d.CBankRead(s.bank, s.off)))
}

func (s *src16) f32(w *Warp, l int, uni uint16) float32 {
	if s.reg >= 0 {
		return fpval.F16ToFloat32(s.apply(uint16(w.regs[l][s.reg])))
	}
	return fpval.F16ToFloat32(uni)
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
	return srcP{pred: op.Pred, neg: negMask(op.NegPred)}
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

// broadcast32 writes a warp-invariant result to every executing lane.
func broadcast32(w *Warp, dst int, v uint32, exec uint32) {
	if exec == fullExec {
		for l := 0; l < WarpSize; l++ {
			w.regs[l][dst] = v
		}
		return
	}
	for m := exec; m != 0; m &= m - 1 {
		w.regs[bits.TrailingZeros32(m)][dst] = v
	}
}

// broadcast64 is broadcast32 for an FP64 register pair.
func broadcast64(w *Warp, dst int, v uint64, exec uint32) {
	lo, hi := fpval.Split64(v)
	if exec == fullExec {
		for l := 0; l < WarpSize; l++ {
			r := w.regs[l]
			r[dst], r[dst+1] = lo, hi
		}
		return
	}
	for m := exec; m != 0; m &= m - 1 {
		r := w.regs[bits.TrailingZeros32(m)]
		r[dst], r[dst+1] = lo, hi
	}
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

// setpCore is a compiled SETP's predicate side, shared by the FSETP and
// ISETP mop closures and the DSETP thunk. Every mop embeds one: SEL and
// FMNMX read only ps, FCHK writes only pd and FSET uses only want.
type setpCore struct {
	want   setMasks
	comb   uint8
	pd, pq int32 // -1 when absent or PT
	ps     srcP
}

func lowerSetpCore(in *sass.Instr, m *kernelMeta, pc int) setpCore {
	c := setpCore{want: setMasksOf(m.cmp[pc]), comb: m.sub[pc], pd: predDst(in.Operands[0].Pred), pq: -1}
	if q := &in.Operands[1]; q.Type == sass.OperandPred {
		c.pq = predDst(q.Pred)
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
