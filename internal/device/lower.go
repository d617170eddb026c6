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
//
// Correctness contract: a thunk must be observationally identical to the
// corresponding executor.lane / shfl / hmma path — same register and memory
// writes bit for bit, same panics, same side effects. The differential test
// in internal/bench runs the whole corpus under both executors and asserts
// byte-identical reports and cycle counts.

// tier is an executor implementation. Every production launch, including
// chaos and campaign runs (whose fault planes are injected calls), runs
// tierFused; the others exist only for tests.
type tier uint8

const (
	// tierFused dispatches fused superinstructions: straight-line runs of
	// lowered thunks collapsed into single region bodies (see fuse.go).
	// Regions that carry injected calls step their lowered thunks one
	// instruction at a time around the calls.
	tierFused tier = iota
	// tierLowered dispatches pre-lowered thunks (direct-threaded) one
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
	// class records how each PC lowered (generic lane loop, RZ-destination
	// no-op, uniform broadcast, control flow). The fusion pass reads it to
	// decide which sites can join a fused chain without re-deriving the
	// lowering decisions.
	class []uint8
	// per-kernel lowering statistics, folded into the global counters when
	// the kernel's program is built.
	instrs, uniform, nops uint64
}

// Lowering classes recorded per PC in loweredKernel.class.
const (
	// lowClassGeneric is the default per-lane thunk.
	lowClassGeneric uint8 = iota
	// lowClassNop is a pure instruction with an RZ destination.
	lowClassNop
	// lowClassUniform is an all-warp-invariant-operand broadcast site.
	lowClassUniform
	// lowClassControl is BRA/EXIT/NOP/BAR, handled by executor.step.
	lowClassControl
)

var lowKernels, lowInstrs, lowUniform, lowNops atomic.Uint64

// LowerStats is a snapshot of the process-wide lowering counters.
type LowerStats struct {
	// Kernels and Instrs count distinct lowered kernels and instructions.
	Kernels, Instrs uint64
	// UniformSites counts instructions lowered to the uniform-operand
	// broadcast path (all sources warp-invariant: compute once, broadcast).
	UniformSites uint64
	// NopSites counts pure instructions with an RZ destination lowered to
	// no-ops.
	NopSites uint64
}

// LowerStatsSnapshot returns the current lowering counters.
func LowerStatsSnapshot() LowerStats {
	return LowerStats{
		Kernels:      lowKernels.Load(),
		Instrs:       lowInstrs.Load(),
		UniformSites: lowUniform.Load(),
		NopSites:     lowNops.Load(),
	}
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
		class:  make([]uint8, len(k.Instrs)),
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
// time constants bake modifiers (and FTZ for FP32) directly into the stored
// bits; constant-bank reads are fetched once per dynamic execution (warp-
// invariant); registers are read per lane with the sign masks applied
// unconditionally.

// src32 is a lowered 32-bit floating-point (or raw-bits) source.
type src32 struct {
	reg       int // register number, or -1 for a warp-invariant source
	neg, abs  uint32
	ftz       bool
	cb        bool // constant-bank source (fetched per execution)
	bank, off int
	bits      uint32 // baked value for compile-time constants
}

func lowerSrc32(op *sass.Operand, ftz bool) src32 {
	neg, abs := op.SignMasks32()
	s := src32{reg: -1, neg: neg, abs: abs, ftz: ftz}
	switch {
	case op.IsPlainReg():
		s.reg = op.Reg
		return s
	case op.Type == sass.OperandCBank:
		s.cb = true
		s.bank, s.off = op.Bank, op.Off
		return s
	}
	var raw uint32
	switch op.Type {
	case sass.OperandImmDouble:
		raw = math.Float32bits(float32(op.Imm))
	case sass.OperandGeneric:
		raw = uint32(genericBits(op.Gen, fpval.FP32))
	case sass.OperandImmInt:
		raw = uint32(op.IVal)
	}
	// RZ and anything srcBits32 defaults to zero stays raw == 0.
	s.bits = s.apply(raw)
	return s
}

func (s *src32) apply(raw uint32) uint32 {
	b := (raw &^ s.abs) ^ s.neg
	if s.ftz {
		b = fpval.Flush32(b)
	}
	return b
}

func (s *src32) uniform() bool { return s.reg < 0 }

// plain reports a bare per-lane register read — no sign masks, no flush —
// so a shape-specialized thunk can load w.regs[l][s.reg] directly.
func (s *src32) plain() bool { return s.reg >= 0 && s.neg == 0 && s.abs == 0 && !s.ftz }

// fetch resolves a warp-invariant source once per dynamic execution.
func (s *src32) fetch(d *Device) uint32 {
	if !s.cb {
		return s.bits
	}
	return s.apply(d.CBankRead(s.bank, s.off))
}

// lane reads the per-lane value; uni is the prefetched warp-invariant value.
func (s *src32) lane(w *Warp, l int, uni uint32) uint32 {
	if s.reg >= 0 {
		return s.apply(w.regs[l][s.reg])
	}
	return uni
}

func (s *src32) f32(w *Warp, l int, uni uint32) float32 {
	return math.Float32frombits(s.lane(w, l, uni))
}

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

// srcI is a lowered integer source; Neg means two's-complement negation.
type srcI struct {
	reg       int
	neg       bool
	cb        bool
	bank, off int
	bits      uint32
}

func lowerSrcI(op *sass.Operand) srcI {
	s := srcI{reg: -1, neg: op.Neg}
	switch {
	case op.IsPlainReg():
		s.reg = op.Reg
		return s
	case op.Type == sass.OperandCBank:
		s.cb = true
		s.bank, s.off = op.Bank, op.Off
		return s
	}
	var v uint32
	switch op.Type {
	case sass.OperandImmInt:
		v = uint32(op.IVal)
	case sass.OperandImmDouble:
		v = uint32(int32(op.Imm))
	}
	if s.neg {
		v = uint32(-int32(v))
	}
	s.bits = v
	return s
}

func (s *srcI) uniform() bool { return s.reg < 0 }

func (s *srcI) fetch(d *Device) uint32 {
	if !s.cb {
		return s.bits
	}
	v := d.CBankRead(s.bank, s.off)
	if s.neg {
		v = uint32(-int32(v))
	}
	return v
}

func (s *srcI) lane(w *Warp, l int, uni uint32) uint32 {
	if s.reg >= 0 {
		v := w.regs[l][s.reg]
		if s.neg {
			v = uint32(-int32(v))
		}
		return v
	}
	return uni
}

// srcP is a lowered predicate source. Non-predicate operands and PT resolve
// to a constant at lower time.
type srcP struct {
	pred  int // -1 when constant
	neg   bool
	konst bool
}

func lowerSrcP(op *sass.Operand) srcP {
	if op.Type != sass.OperandPred {
		return srcP{pred: -1, konst: true}
	}
	if op.Pred == sass.PT {
		return srcP{pred: -1, konst: !op.NegPred}
	}
	return srcP{pred: op.Pred, neg: op.NegPred}
}

func (p *srcP) uniform() bool { return p.pred < 0 }

func (p *srcP) lane(w *Warp, l int) bool {
	if p.pred < 0 {
		return p.konst
	}
	v := w.preds[l]&(1<<uint(p.pred)) != 0
	return v != p.neg
}

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

func (a *lowAddr) uniform() bool { return a.reg < 0 }

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

// ---- baked comparison and combiner functions ----

func fcmpUnordered(a, b float64) bool { return a != a || b != b }

func fcmpLT(a, b float64) bool  { return !fcmpUnordered(a, b) && a < b }
func fcmpLE(a, b float64) bool  { return !fcmpUnordered(a, b) && a <= b }
func fcmpGT(a, b float64) bool  { return !fcmpUnordered(a, b) && a > b }
func fcmpGE(a, b float64) bool  { return !fcmpUnordered(a, b) && a >= b }
func fcmpEQ(a, b float64) bool  { return !fcmpUnordered(a, b) && a == b }
func fcmpNE(a, b float64) bool  { return !fcmpUnordered(a, b) && a != b }
func fcmpLTU(a, b float64) bool { return fcmpUnordered(a, b) || a < b }
func fcmpLEU(a, b float64) bool { return fcmpUnordered(a, b) || a <= b }
func fcmpGTU(a, b float64) bool { return fcmpUnordered(a, b) || a > b }
func fcmpGEU(a, b float64) bool { return fcmpUnordered(a, b) || a >= b }
func fcmpEQU(a, b float64) bool { return fcmpUnordered(a, b) || a == b }
func fcmpNEU(a, b float64) bool { return fcmpUnordered(a, b) || a != b }
func fcmpFalse(a, b float64) bool {
	_, _ = a, b
	return false
}

// fcmpFn resolves a floating compare modifier to its function once at lower
// time; semantics match fcmp in exec.go exactly.
func fcmpFn(mod string) func(a, b float64) bool {
	switch mod {
	case "LT":
		return fcmpLT
	case "LE":
		return fcmpLE
	case "GT":
		return fcmpGT
	case "GE":
		return fcmpGE
	case "EQ":
		return fcmpEQ
	case "NE":
		return fcmpNE
	case "LTU":
		return fcmpLTU
	case "LEU":
		return fcmpLEU
	case "GTU":
		return fcmpGTU
	case "GEU":
		return fcmpGEU
	case "EQU":
		return fcmpEQU
	case "NEU":
		return fcmpNEU
	default:
		return fcmpFalse
	}
}

func icmpLT(a, b int32) bool { return a < b }
func icmpLE(a, b int32) bool { return a <= b }
func icmpGT(a, b int32) bool { return a > b }
func icmpGE(a, b int32) bool { return a >= b }
func icmpEQ(a, b int32) bool { return a == b }
func icmpNE(a, b int32) bool { return a != b }
func icmpFalse(a, b int32) bool {
	_, _ = a, b
	return false
}

// icmpFn resolves an integer compare modifier; semantics match icmp.
func icmpFn(mod string) func(a, b int32) bool {
	switch mod {
	case "LT":
		return icmpLT
	case "LE":
		return icmpLE
	case "GT":
		return icmpGT
	case "GE":
		return icmpGE
	case "EQ":
		return icmpEQ
	case "NE":
		return icmpNE
	default:
		return icmpFalse
	}
}

// setpCore is the lowered predicate-write tail shared by FSETP/DSETP/ISETP.
type setpCore struct {
	pd, pq int // pq < 0 when absent or PT
	comb   uint8
	pc     srcP
}

func lowerSetpCore(in *sass.Instr, m *kernelMeta, pc int) setpCore {
	c := setpCore{pd: in.Operands[0].Pred, pq: -1, comb: m.sub[pc]}
	if q := &in.Operands[1]; q.Type == sass.OperandPred && q.Pred != sass.PT {
		c.pq = q.Pred
	}
	c.pc = lowerSrcP(&in.Operands[len(in.Operands)-1])
	return c
}

func combinePred(comb uint8, x, pcv bool) bool {
	switch comb {
	case subSetpOr:
		return x || pcv
	case subSetpXor:
		return x != pcv
	default: // subSetpAnd
		return x && pcv
	}
}

func (s *setpCore) apply(w *Warp, l int, c bool) {
	pcv := s.pc.lane(w, l)
	w.SetPred(l, s.pd, combinePred(s.comb, c, pcv))
	if s.pq >= 0 {
		w.SetPred(l, s.pq, combinePred(s.comb, !c, pcv))
	}
}
