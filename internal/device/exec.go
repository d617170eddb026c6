package device

import (
	"fmt"
	"math"
	"math/bits"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// Launch describes one kernel launch.
type Launch struct {
	Kernel *sass.Kernel
	// GridDim and BlockDim are the 1-D launch dimensions (blocks and
	// threads per block).
	GridDim, BlockDim int
	// Params are 32-bit parameter words stored to c[0x0][ParamBase+4i].
	Params []uint32
	// InjectTab holds the calls tools and fault planes inserted, split by
	// PC and phase. It is cacheable per kernel and shareable across
	// launches (read-only here); nil means an uninstrumented launch.
	InjectTab *InjectTable
	// MaxDynInstr aborts a runaway kernel (safety net for malformed
	// corpus programs); 0 means the default of 64M dynamic instructions.
	MaxDynInstr uint64
	// Cancel, when non-nil, stops the launch cooperatively: the executor
	// polls it every 1024 dynamic instructions and returns ErrCanceled once
	// it is closed, bounding the work done after a cancellation.
	Cancel <-chan struct{}
}

// LaunchStats summarizes one launch.
type LaunchStats struct {
	Cycles         uint64
	Instructions   uint64
	FPInstructions uint64
}

// Launch executes a kernel to completion and returns its stats. The device
// timeline advances by the launch's cycle cost (plus any channel stalls).
func (d *Device) Launch(l *Launch) (LaunchStats, error) {
	return d.launch(l, tier(testTier.Load()))
}

// launch runs l on executor tier t.
func (d *Device) launch(l *Launch, t tier) (LaunchStats, error) {
	if l.GridDim <= 0 || l.BlockDim <= 0 {
		return LaunchStats{}, fmt.Errorf("%w: dims %dx%d", ErrBadGeometry, l.GridDim, l.BlockDim)
	}
	if l.BlockDim > 1024 {
		return LaunchStats{}, fmt.Errorf("%w: block dim %d exceeds 1024", ErrBadGeometry, l.BlockDim)
	}
	for i, p := range l.Params {
		d.SetParam(ParamBase+4*i, p)
	}
	d.ResetWatchdog()
	start := d.Cycles
	startInstr := d.Stats.Instructions
	startFP := d.Stats.FPInstructions

	budget := l.MaxDynInstr
	if budget == 0 {
		budget = 64 << 20
	}
	prog := programFor(l.Kernel)
	// Malformed kernels (unknown opcodes, missing operands, broken register
	// pairs) are rejected here, once per launch, instead of panicking per
	// dynamic instruction deep in an executor.
	if prog.meta.verr != nil {
		return LaunchStats{}, fmt.Errorf("device: kernel %s: %w", l.Kernel.Name, prog.meta.verr)
	}
	ex := &executor{d: d, l: l, budget: budget, meta: prog.meta, cancel: l.Cancel}
	if t != tierInterp {
		ex.low = prog.low
	}
	if t == tierFused {
		ex.fk = prog.fk
	}
	if err := d.runGrid(ex); err != nil {
		return LaunchStats{}, err
	}
	return LaunchStats{
		Cycles:         d.Cycles - start,
		Instructions:   d.Stats.Instructions - startInstr,
		FPInstructions: d.Stats.FPInstructions - startFP,
	}, nil
}

// runGrid executes every block of ex's launch on this device, in block
// order.
func (d *Device) runGrid(ex *executor) error {
	sc := getScratch()
	l, fk := ex.l, ex.fk
	// The table's PC-indexed slices are shared directly, so the
	// per-dynamic-instruction path is a slice index.
	if !l.InjectTab.Empty() {
		ex.injBefore, ex.injAfter = l.InjectTab.split(len(l.Kernel.Instrs))
	}
	if fk != nil && (ex.injBefore != nil || ex.injAfter != nil) {
		ex.prepFusedCalls(sc)
	}
	hasBar := ex.meta.hasBar
	warpsPerBlock := (l.BlockDim + WarpSize - 1) / WarpSize
	// Warps are allocated once and reset per block: register files are
	// zeroed in place instead of reallocated, which keeps the per-block
	// cost out of the garbage collector. The pointer table, shared block
	// and fused-tier scratch come from the launch scratch pool; done
	// hands them back on every non-panic return.
	warps := growPtrs(sc.warps, warpsPerBlock)
	done := func() {
		sc.warps, sc.shared = warps, ex.shared
		sc.regionDirty = ex.regionDirty
		sc.release()
	}
	for wi := 0; wi < warpsPerBlock; wi++ {
		lanes := l.BlockDim - wi*WarpSize
		if lanes > WarpSize {
			lanes = WarpSize
		}
		warps[wi] = newWarp(wi, 0, wi, l.Kernel.NumRegs, lanes)
	}
	// Shared memory is allocated once and zeroed in place per block, like
	// the warp pool above.
	ex.shared = growBytes(sc.shared, l.Kernel.SharedBytes)
	for b := 0; b < l.GridDim; b++ {
		if b > 0 {
			for i := range ex.shared {
				ex.shared[i] = 0
			}
			for wi, w := range warps {
				w.reset(b*warpsPerBlock+wi, b, wi)
			}
		}
		if err := ex.runBlock(warps, hasBar); err != nil {
			releaseWarps(warps)
			done()
			return err
		}
	}
	releaseWarps(warps)
	done()
	return nil
}

// releaseWarps returns a launch's register backings to the shared pool on
// the non-panicking exit paths (a faulted launch just falls to the GC).
func releaseWarps(warps []*Warp) {
	for _, w := range warps {
		w.release()
	}
}

type executor struct {
	d      *Device
	l      *Launch
	meta   *kernelMeta
	low    *loweredKernel // nil on the reference interpreter
	fk     *fusedKernel   // non-nil when dispatching fused regions
	shared []byte
	budget uint64
	issued uint64
	cancel <-chan struct{}

	// regionDirty marks the regions whose bodies hold injected calls for
	// this launch; nil when the launch is uninstrumented (everything
	// clean).
	regionDirty []bool

	// injBefore and injAfter are the launch's injected calls indexed by
	// PC; both nil when the launch is uninstrumented.
	injBefore [][]InjectedCall
	injAfter  [][]InjectedCall

	// injCtx is reused across injected calls (one context per call would
	// otherwise be the executor's dominant heap allocation); see the
	// lifetime note on InjCtx.
	injCtx InjCtx
}

// runBlock executes the warps of one block. Without barriers each warp runs
// to completion in turn; with barriers the warps run round-robin and
// synchronize at BAR.
func (ex *executor) runBlock(warps []*Warp, hasBar bool) error {
	if !hasBar {
		for _, w := range warps {
			for !w.done() {
				if err := ex.step(w); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for {
		alive := false
		progress := false
		for _, w := range warps {
			if w.done() {
				continue
			}
			alive = true
			if w.atBarrier {
				continue
			}
			for !w.done() && !w.atBarrier {
				if err := ex.step(w); err != nil {
					return err
				}
			}
			progress = true
		}
		if !alive {
			return nil
		}
		// Release the barrier when every live warp reached it.
		allAt := true
		for _, w := range warps {
			if !w.done() && !w.atBarrier {
				allAt = false
				break
			}
		}
		if allAt {
			for _, w := range warps {
				w.releaseBarrier()
			}
			progress = true
		}
		if !progress {
			return fmt.Errorf("device: deadlock at barrier in kernel %s", ex.l.Kernel.Name)
		}
	}
}

// step advances one warp: in fused mode a PC at a region head executes the
// whole superinstruction, otherwise exactly one instruction.
func (ex *executor) step(w *Warp) error {
	if ex.fk != nil {
		pc := w.pc
		if pc >= 0 && pc < len(ex.fk.regionAt) {
			if ri := ex.fk.regionAt[pc]; ri >= 0 {
				return ex.stepRegion(w, ri)
			}
		}
	}
	return ex.stepOne(w)
}

// stepRegion executes one fused region for one warp: bulk accounting, then
// the body's thunks, then the optional fused branch tail. Observable state
// after the region — registers, predicates, memory, statistics, PC and the
// divergence stack — is bit-identical to stepping the same PCs one at a
// time through stepOne.
func (ex *executor) stepRegion(w *Warp, ri int32) error {
	fk := ex.fk
	r := &fk.regions[ri]
	if ex.issued+r.total > ex.budget || ex.regionDirty != nil && ex.regionDirty[ri] {
		// The region would cross the budget, or its body holds injected
		// calls, which may abort the launch mid-region (event caps, early
		// termination): step it one instruction at a time, so the calls
		// see the per-instruction event order and an abort lands on exactly
		// the same instruction and cycle count.
		return ex.stepOne(w)
	}
	d := ex.d
	exec := w.active
	before := ex.issued
	ex.issued += r.total
	if ex.cancel != nil && before>>10 != ex.issued>>10 {
		if err := ex.canceled(); err != nil {
			return err
		}
	}
	// Every body instruction is @PT, so each would execute with the full
	// active mask; nothing in a call-free body can abort, so statistics
	// are identical accounted in bulk.
	n := uint64(r.end - r.start)
	d.Cycles += r.cost
	d.Stats.Instructions += n
	d.Stats.LaneOps += n * uint64(bits.OnesCount32(exec))
	d.Stats.FPInstructions += r.fp
	for _, fn := range r.fns {
		fn(ex, w, exec)
	}

	w.pc = r.end
	if !r.tail {
		return nil
	}
	// Fused branch tail: the guard reads the predicates the body just
	// wrote; divergence handling mirrors the BRA case of stepOne.
	texec := exec & (w.pmask[r.tailPred] ^ r.tailNeg)
	d.Cycles += r.tailCost
	d.Stats.Instructions++
	d.Stats.LaneOps += uint64(bits.OnesCount32(texec))
	switch {
	case texec == 0:
		w.pc = r.end + 1
	case texec == exec:
		w.pc = r.tailTarget
	default:
		w.diverge(texec, r.tailTarget)
	}
	return nil
}

// prepFusedCalls marks, once per instrumented launch, which regions hold
// injected calls in their bodies so the dispatch fast path stays a single
// bool test. It visits only the table's call PCs.
func (ex *executor) prepFusedCalls(sc *launchScratch) {
	fk := ex.fk
	ex.regionDirty = growBools(sc.regionDirty, len(fk.regions))
	for _, pc := range ex.l.InjectTab.pcs {
		if pc < len(fk.regionOf) && fk.regionOf[pc] >= 0 {
			ex.regionDirty[fk.regionOf[pc]] = true
		}
	}
}

// canceled returns ErrCanceled once the launch's Cancel channel is closed.
// Callers poll it every 1024 issued instructions.
func (ex *executor) canceled() error {
	select {
	case <-ex.cancel:
		return fmt.Errorf("device: kernel %s: %w", ex.l.Kernel.Name, ErrCanceled)
	default:
		return nil
	}
}

// stepOne executes one instruction for one warp.
func (ex *executor) stepOne(w *Warp) error {
	k := ex.l.Kernel
	pc := w.pc
	if pc < 0 || pc >= len(k.Instrs) {
		// Falling off the end behaves like EXIT.
		w.retire(w.active)
		return nil
	}
	ex.issued++
	if ex.issued > ex.budget {
		return fmt.Errorf("device: kernel %s: %w", k.Name, ErrBudget)
	}
	if ex.issued&1023 == 0 && ex.cancel != nil {
		if err := ex.canceled(); err != nil {
			return err
		}
	}
	in := &k.Instrs[pc]
	m := ex.meta

	// Guard predicate: one AND with the guard's lane mask (PT is all ones).
	exec := w.active & (w.pmask[in.Guard] ^ negMask(in.GuardNeg))

	ex.d.Cycles += m.cost[pc]
	ex.d.Stats.Instructions++
	ex.d.Stats.LaneOps += uint64(bits.OnesCount32(exec))
	if m.isFP[pc] {
		ex.d.Stats.FPInstructions++
	}

	// Branches manage the PC themselves.
	if in.Op == sass.OpBRA {
		target := int(in.Operands[0].IVal)
		switch {
		case exec == 0:
			w.pc++
		case exec == w.active:
			w.pc = target
		default:
			w.diverge(exec, target)
		}
		return nil
	}

	if exec != 0 {
		if ex.injBefore != nil {
			if err := ex.runCalls(ex.injBefore[pc], w, in, exec); err != nil {
				return err
			}
		}
		if ex.low != nil {
			// Direct-threaded dispatch: the lowering pass resolved the
			// opcode and operand classes once per kernel.
			ex.low.thunks[pc](ex, w, exec)
		} else {
			ex.interpret(w, in, pc, exec)
		}
		if ex.injAfter != nil {
			if err := ex.runCalls(ex.injAfter[pc], w, in, exec); err != nil {
				return err
			}
		}
	}

	switch in.Op {
	case sass.OpEXIT:
		if exec == 0 {
			w.pc++
		} else if remaining := w.active &^ exec; remaining != 0 {
			w.exited |= exec
			w.active = remaining
			w.pc++
		} else {
			// retire pops the divergence stack and restores its PC.
			w.retire(exec)
		}
	case sass.OpBAR:
		if exec != 0 {
			before := w.active
			w.parkAtBarrier(exec, w.pc+1)
			// Guard-failed lanes skip the barrier.
			if rem := before &^ exec; rem != 0 && w.active == rem {
				w.pc++
			}
		} else {
			w.pc++
		}
	default:
		w.pc++
	}
	return nil
}

// runCalls executes one PC's injected calls for one When class; the
// Before/After split happened once at launch time.
func (ex *executor) runCalls(calls []InjectedCall, w *Warp, in *sass.Instr, exec uint32) error {
	for i := range calls {
		c := &calls[i]
		ex.d.Cycles += c.Cost
		if c.Fn != nil {
			ex.injCtx = InjCtx{Dev: ex.d, Warp: w, Instr: in, ExecMask: exec}
			if err := c.Fn(&ex.injCtx); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---- per-lane semantics ----

// interpret executes one instruction on the reference interpreter.
func (ex *executor) interpret(w *Warp, in *sass.Instr, pc int, exec uint32) {
	if in.Op == sass.OpSHFL {
		// Shuffles exchange values between lanes: snapshot the source
		// register across the warp first so in-place butterflies work.
		ex.shfl(w, in, pc, exec)
		return
	}
	if in.Op == sass.OpHMMA {
		ex.hmma(w, in, exec)
		return
	}
	for l := 0; l < WarpSize; l++ {
		if exec&(1<<uint(l)) != 0 {
			ex.lane(w, in, pc, l)
		}
	}
}

// shfl implements SHFL.UP/DOWN/BFLY/IDX Rd, Ra, offset: every executing
// lane receives Ra from the lane selected by the mode; out-of-range
// sources leave the lane's own value.
func (ex *executor) shfl(w *Warp, in *sass.Instr, pc int, exec uint32) {
	dst := in.Operands[0].Reg
	srcReg := in.Operands[1].Reg
	mode := ex.meta.sub[pc]
	var snapshot [WarpSize]uint32
	for l := 0; l < WarpSize; l++ {
		snapshot[l] = w.Reg(l, srcReg)
	}
	for l := 0; l < WarpSize; l++ {
		if exec&(1<<uint(l)) == 0 {
			continue
		}
		src := shflLane(mode, l, int(ex.srcInt(w, l, &in.Operands[2])))
		v := snapshot[l]
		if src >= 0 && src < WarpSize {
			v = snapshot[src]
		}
		w.SetReg(l, dst, v)
	}
}

// hmma implements the tensor-core HMMA.884 warp-wide matrix
// multiply-accumulate D = A×B + C on an 8×8×4 tile. The fragment layout is
// this simulator's convention (real HMMA layouts vary by architecture and
// step; any fixed warp-cooperative distribution exercises the same
// instrumentation problem):
//
//   - A is 8×4 FP16: lane l holds A[l/4][l%4] in the low 16 bits of Ra.
//   - B is 4×8 FP16: lane l holds B[l/8][l%8] in the low 16 bits of Rb.
//   - C and D are 8×8: lane l holds row l/4, columns 2(l%4) and 2(l%4)+1.
//     With FP32 accumulators (HMMA.884.F32.F32) those live in the register
//     pair (Rc, Rc+1) / (Rd, Rd+1); with 16-bit accumulators
//     (HMMA.884.F16.F16, HMMA.884.BF16.BF16) they are packed lo/hi into
//     single registers. A BF16 modifier anywhere marks bfloat16 A/B
//     fragments (HMMA.884.F32.F32.BF16 = BF16 inputs, FP32 accumulate).
//
// Products are exact in float32 (11-bit significands); accumulation runs in
// float32 over k then adds C, matching tensor cores' wide accumulate. The
// FP16 variant rounds once when writing D, which is where its overflows
// materialize. Like real tensor ops, HMMA is warp-synchronous: fragments
// are read from all 32 lanes regardless of predication, but only executing
// lanes' destinations are written.
func (ex *executor) hmma(w *Warp, in *sass.Instr, exec uint32) {
	dstFmt, ok := in.HMMADestFormat()
	if !ok {
		return
	}
	inFmt := in.HMMAInputFormat()
	half := func(bits uint16) float32 {
		if inFmt == fpval.BF16 {
			return fpval.BF16ToFloat32(bits)
		}
		return fpval.F16ToFloat32(bits)
	}
	accHalf := func(bits uint16) float32 {
		if dstFmt == fpval.BF16 {
			return fpval.BF16ToFloat32(bits)
		}
		return fpval.F16ToFloat32(bits)
	}
	ra, rb := in.Operands[1].Reg, in.Operands[2].Reg
	rc, rd := in.Operands[3].Reg, in.Operands[0].Reg

	var a [8][4]float32
	var b [4][8]float32
	var c [8][8]float32
	for l := 0; l < WarpSize; l++ {
		a[l/4][l%4] = half(uint16(w.Reg(l, ra)))
		b[l/8][l%8] = half(uint16(w.Reg(l, rb)))
		row, col := l/4, 2*(l%4)
		if dstFmt == fpval.FP32 {
			c[row][col] = math.Float32frombits(w.Reg(l, rc))
			c[row][col+1] = math.Float32frombits(w.Reg(l, rc+1))
		} else {
			packed := w.Reg(l, rc)
			c[row][col] = accHalf(uint16(packed))
			c[row][col+1] = accHalf(uint16(packed >> 16))
		}
	}

	var d [8][8]float32
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			acc := float32(0)
			for k := 0; k < 4; k++ {
				acc = add32(acc, mul32(a[i][k], b[k][j]))
			}
			d[i][j] = add32(acc, c[i][j])
		}
	}

	pack := func(v float32) uint32 {
		if dstFmt == fpval.BF16 {
			return uint32(fpval.BF16FromFloat32(v))
		}
		return uint32(fpval.F16FromFloat32(v))
	}
	for l := 0; l < WarpSize; l++ {
		if exec&(1<<uint(l)) == 0 {
			continue
		}
		row, col := l/4, 2*(l%4)
		if dstFmt == fpval.FP32 {
			w.SetReg(l, rd, math.Float32bits(d[row][col]))
			w.SetReg(l, rd+1, math.Float32bits(d[row][col+1]))
		} else {
			w.SetReg(l, rd, pack(d[row][col])|pack(d[row][col+1])<<16)
		}
	}
}

func (ex *executor) lane(w *Warp, in *sass.Instr, pc, l int) {
	m := ex.meta
	ftz := m.ftz[pc]
	ops := in.Operands
	switch in.Op {
	case sass.OpFADD, sass.OpFADD32I:
		a, b := ex.srcF32(w, l, &ops[1], ftz), ex.srcF32(w, l, &ops[2], ftz)
		ex.putF32(w, l, &ops[0], add32(a, b), ftz)
	case sass.OpFMUL, sass.OpFMUL32I:
		a, b := ex.srcF32(w, l, &ops[1], ftz), ex.srcF32(w, l, &ops[2], ftz)
		ex.putF32(w, l, &ops[0], mul32(a, b), ftz)
	case sass.OpFFMA, sass.OpFFMA32I:
		a, b, c := ex.srcF32(w, l, &ops[1], ftz), ex.srcF32(w, l, &ops[2], ftz), ex.srcF32(w, l, &ops[3], ftz)
		ex.putF32(w, l, &ops[0], float32(fma32(a, b, c)), ftz)
	case sass.OpMUFU:
		w.SetReg(l, ops[0].Reg, mufuEval(m.sub[pc], ex.srcBits32(w, l, &ops[1])))
	case sass.OpDADD:
		a, b := ex.srcF64(w, l, &ops[1]), ex.srcF64(w, l, &ops[2])
		ex.putF64(w, l, &ops[0], add64(a, b))
	case sass.OpDMUL:
		a, b := ex.srcF64(w, l, &ops[1]), ex.srcF64(w, l, &ops[2])
		ex.putF64(w, l, &ops[0], mul64(a, b))
	case sass.OpDFMA:
		a, b, c := ex.srcF64(w, l, &ops[1]), ex.srcF64(w, l, &ops[2]), ex.srcF64(w, l, &ops[3])
		ex.putF64(w, l, &ops[0], math.FMA(a, b, c))
	case sass.OpFSEL:
		a, b := ex.srcBits32(w, l, &ops[1]), ex.srcBits32(w, l, &ops[2])
		if ex.predVal(w, l, &ops[3]) {
			w.SetReg(l, ops[0].Reg, a)
		} else {
			w.SetReg(l, ops[0].Reg, b)
		}
	case sass.OpFSET:
		a, b := ex.srcF32(w, l, &ops[1], ftz), ex.srcF32(w, l, &ops[2], ftz)
		v := uint32(0)
		if cmpHolds(m.cmp[pc], a, b) {
			if m.sub[pc] == subWide { // .BF: boolean-float result
				v = math.Float32bits(1)
			} else {
				v = ^uint32(0)
			}
		}
		w.SetReg(l, ops[0].Reg, v)
	case sass.OpFSETP:
		a, b := ex.srcF32(w, l, &ops[2], ftz), ex.srcF32(w, l, &ops[3], ftz)
		ex.setp(w, in, pc, l, cmpHolds(m.cmp[pc], a, b))
	case sass.OpDSETP:
		a, b := ex.srcF64(w, l, &ops[2]), ex.srcF64(w, l, &ops[3])
		ex.setp(w, in, pc, l, cmpHolds(m.cmp[pc], a, b))
	case sass.OpFMNMX:
		a, b := ex.srcF32(w, l, &ops[1], ftz), ex.srcF32(w, l, &ops[2], ftz)
		min := ex.predVal(w, l, &ops[3])
		ex.putF32(w, l, &ops[0], fmnmx32(a, b, min), ftz)
	case sass.OpHADD2:
		a, b := ex.srcF16(w, l, &ops[1]), ex.srcF16(w, l, &ops[2])
		ex.putF16(w, l, &ops[0], add32(a, b))
	case sass.OpHMUL2:
		a, b := ex.srcF16(w, l, &ops[1]), ex.srcF16(w, l, &ops[2])
		ex.putF16(w, l, &ops[0], mul32(a, b))
	case sass.OpHFMA2:
		a, b, c := ex.srcF16(w, l, &ops[1]), ex.srcF16(w, l, &ops[2]), ex.srcF16(w, l, &ops[3])
		ex.putF16(w, l, &ops[0], float32(fma32(a, b, c)))
	case sass.OpFCHK:
		if m.sub[pc] == subWide {
			a, b := ex.srcF64(w, l, &ops[1]), ex.srcF64(w, l, &ops[2])
			w.SetPred(l, ops[0].Pred, fchkSpecial64(a, b))
		} else {
			a, b := ex.srcF32(w, l, &ops[1], false), ex.srcF32(w, l, &ops[2], false)
			w.SetPred(l, ops[0].Pred, fchkSpecial(a, b))
		}
	case sass.OpF2F:
		dst, src := f2fFormats(m.sub[pc])
		x := uint64(ex.srcBits32(w, l, &ops[1]))
		if src == fpval.FP64 {
			x = math.Float64bits(ex.srcF64(w, l, &ops[1]))
		}
		v := f2fEval(dst, src, ftz, x)
		if dst == fpval.FP64 {
			ex.putF64(w, l, &ops[0], math.Float64frombits(v))
		} else {
			w.SetReg(l, ops[0].Reg, uint32(v))
		}
	case sass.OpI2F:
		v := int32(ex.srcInt(w, l, &ops[1]))
		if m.sub[pc] == subWide {
			ex.putF64(w, l, &ops[0], float64(v))
		} else {
			ex.putF32(w, l, &ops[0], float32(v), false)
		}
	case sass.OpF2I:
		var v float64
		if m.sub[pc] == subWide {
			v = ex.srcF64(w, l, &ops[1])
		} else {
			v = float64(ex.srcF32(w, l, &ops[1], false))
		}
		w.SetReg(l, ops[0].Reg, uint32(int32(truncToI32(v))))
	case sass.OpMOV, sass.OpMOV32I:
		w.SetReg(l, ops[0].Reg, ex.srcBits32(w, l, &ops[1]))
	case sass.OpIADD:
		w.SetReg(l, ops[0].Reg, ex.srcInt(w, l, &ops[1])+ex.srcInt(w, l, &ops[2]))
	case sass.OpIADD3:
		w.SetReg(l, ops[0].Reg, ex.srcInt(w, l, &ops[1])+ex.srcInt(w, l, &ops[2])+ex.srcInt(w, l, &ops[3]))
	case sass.OpIMAD:
		w.SetReg(l, ops[0].Reg, ex.srcInt(w, l, &ops[1])*ex.srcInt(w, l, &ops[2])+ex.srcInt(w, l, &ops[3]))
	case sass.OpISETP:
		a, b := int32(ex.srcInt(w, l, &ops[2])), int32(ex.srcInt(w, l, &ops[3]))
		ex.setp(w, in, pc, l, cmpHolds(m.cmp[pc], a, b))
	case sass.OpSHL:
		w.SetReg(l, ops[0].Reg, ex.srcInt(w, l, &ops[1])<<(ex.srcInt(w, l, &ops[2])&31))
	case sass.OpSHR:
		w.SetReg(l, ops[0].Reg, ex.srcInt(w, l, &ops[1])>>(ex.srcInt(w, l, &ops[2])&31))
	case sass.OpLOP:
		a, b := ex.srcInt(w, l, &ops[1]), ex.srcInt(w, l, &ops[2])
		var v uint32
		switch m.sub[pc] {
		case subLopOr:
			v = a | b
		case subLopXor:
			v = a ^ b
		default:
			v = a & b
		}
		w.SetReg(l, ops[0].Reg, v)
	case sass.OpSEL:
		if ex.predVal(w, l, &ops[3]) {
			w.SetReg(l, ops[0].Reg, ex.srcBits32(w, l, &ops[1]))
		} else {
			w.SetReg(l, ops[0].Reg, ex.srcBits32(w, l, &ops[2]))
		}
	case sass.OpLDG:
		addr := ex.memAddr(w, l, &ops[1])
		if m.sub[pc] == subWide {
			v := ex.d.Load64(addr)
			lo, hi := fpval.Split64(v)
			w.SetReg(l, ops[0].Reg, lo)
			w.SetReg(l, ops[0].Reg+1, hi)
		} else {
			w.SetReg(l, ops[0].Reg, ex.d.Load32(addr))
		}
	case sass.OpSTG:
		addr := ex.memAddr(w, l, &ops[0])
		if m.sub[pc] == subWide {
			v := fpval.Pair64(w.Reg(l, ops[1].Reg), w.Reg(l, ops[1].Reg+1))
			ex.d.Store64(addr, v)
		} else {
			ex.d.Store32(addr, w.Reg(l, ops[1].Reg))
		}
	case sass.OpRED:
		// Atomic read-modify-write on global memory. Lanes execute
		// sequentially in the simulator, so the update is naturally
		// atomic (and, unlike real hardware, deterministic in order).
		addr := ex.memAddr(w, l, &ops[0])
		ex.d.Store32(addr, redEval(m.sub[pc], ex.d.Load32(addr), w.Reg(l, ops[1].Reg)))
	case sass.OpLDS:
		off := ex.memAddr(w, l, &ops[1])
		if int(off)+4 <= len(ex.shared) {
			w.SetReg(l, ops[0].Reg, leU32(ex.shared[off:]))
		}
	case sass.OpSTS:
		off := ex.memAddr(w, l, &ops[0])
		if int(off)+4 <= len(ex.shared) {
			putLeU32(ex.shared[off:], w.Reg(l, ops[1].Reg))
		}
	case sass.OpLDC:
		op := &ops[1]
		w.SetReg(l, ops[0].Reg, ex.d.CBankRead(op.Bank, op.Off))
	case sass.OpS2R:
		w.SetReg(l, ops[0].Reg, ex.special(w, l, ops[1].SR))
	case sass.OpEXIT, sass.OpNOP, sass.OpBAR:
		// handled by step / no-op
	default:
		panic(fmt.Sprintf("device: unimplemented opcode %v", in.Op))
	}
}

func (ex *executor) special(w *Warp, lane int, sr sass.SpecialReg) uint32 {
	switch sr {
	case sass.SRTidX:
		return uint32(w.WarpInBlock*WarpSize + lane)
	case sass.SRCtaidX:
		return uint32(w.Block)
	case sass.SRNtidX:
		return uint32(ex.l.BlockDim)
	case sass.SRNctaidX:
		return uint32(ex.l.GridDim)
	case sass.SRLaneID:
		return uint32(lane)
	default:
		return 0
	}
}

func (ex *executor) setp(w *Warp, in *sass.Instr, pc, l int, c bool) {
	pd, pq := &in.Operands[0], &in.Operands[1]
	pcv, comb := b2u(ex.predVal(w, l, &in.Operands[len(in.Operands)-1])), ex.meta.sub[pc]
	w.SetPred(l, pd.Pred, combine(comb, b2u(c), pcv) != 0)
	if pq.Type == sass.OperandPred && pq.Pred != sass.PT {
		w.SetPred(l, pq.Pred, combine(comb, b2u(!c), pcv) != 0)
	}
}

// ---- operand access ----

func (ex *executor) srcBits32(w *Warp, l int, op *sass.Operand) uint32 {
	var bits uint32
	switch op.Type {
	case sass.OperandReg:
		bits = w.Reg(l, op.Reg)
	case sass.OperandCBank:
		bits = ex.d.CBankRead(op.Bank, op.Off)
	case sass.OperandImmDouble:
		bits = math.Float32bits(float32(op.Imm))
	case sass.OperandGeneric:
		bits = uint32(genericBits(op.Gen, fpval.FP32))
	case sass.OperandImmInt:
		bits = uint32(op.IVal)
	default:
		bits = 0
	}
	if op.Abs {
		bits &^= 0x80000000
	}
	if op.Neg {
		bits ^= 0x80000000
	}
	return bits
}

func (ex *executor) srcF32(w *Warp, l int, op *sass.Operand, ftz bool) float32 {
	v := math.Float32frombits(ex.srcBits32(w, l, op))
	if ftz {
		v = fpval.FlushFloat32(v)
	}
	return v
}

// srcF16 reads a half-precision source: immediates convert through the
// FP16 rounding, and sign modifiers act on the FP16 sign bit.
func (ex *executor) srcF16(w *Warp, l int, op *sass.Operand) float32 {
	var bits uint16
	switch op.Type {
	case sass.OperandImmDouble:
		bits = fpval.F16FromFloat32(float32(op.Imm))
	case sass.OperandGeneric:
		bits = uint16(genericBits(op.Gen, fpval.FP16))
	default:
		raw := *op
		raw.Neg, raw.Abs = false, false
		bits = uint16(ex.srcBits32(w, l, &raw))
	}
	if op.Abs {
		bits &^= 0x8000
	}
	if op.Neg {
		bits ^= 0x8000
	}
	return fpval.F16ToFloat32(bits)
}

func (ex *executor) srcF64(w *Warp, l int, op *sass.Operand) float64 {
	var bits uint64
	switch op.Type {
	case sass.OperandReg:
		// RZ reads 0 as a pair too: it has no partner register.
		if op.Reg != sass.RZ {
			bits = fpval.Pair64(w.Reg(l, op.Reg), w.Reg(l, op.Reg+1))
		}
	case sass.OperandCBank:
		bits = fpval.Pair64(ex.d.CBankRead(op.Bank, op.Off), ex.d.CBankRead(op.Bank, op.Off+4))
	case sass.OperandImmDouble:
		bits = math.Float64bits(op.Imm)
	case sass.OperandGeneric:
		bits = genericBits(op.Gen, fpval.FP64)
	default:
		bits = 0
	}
	if op.Abs {
		bits &^= 1 << 63
	}
	if op.Neg {
		bits ^= 1 << 63
	}
	return math.Float64frombits(bits)
}

// srcInt reads an integer source; Neg means two's-complement negation here.
func (ex *executor) srcInt(w *Warp, l int, op *sass.Operand) uint32 {
	var v uint32
	switch op.Type {
	case sass.OperandReg:
		v = w.Reg(l, op.Reg)
	case sass.OperandCBank:
		v = ex.d.CBankRead(op.Bank, op.Off)
	case sass.OperandImmInt:
		v = uint32(op.IVal)
	case sass.OperandImmDouble:
		v = uint32(int32(op.Imm))
	default:
		v = 0
	}
	if op.Neg {
		v = uint32(-int32(v))
	}
	return v
}

func (ex *executor) predVal(w *Warp, l int, op *sass.Operand) bool {
	if op.Type != sass.OperandPred {
		return true
	}
	v := w.Pred(l, op.Pred)
	if op.NegPred {
		v = !v
	}
	return v
}

func (ex *executor) memAddr(w *Warp, l int, op *sass.Operand) uint32 {
	return w.Reg(l, op.Reg) + uint32(op.IVal)
}

func (ex *executor) putF32(w *Warp, l int, dst *sass.Operand, v float32, ftz bool) {
	if ftz {
		v = fpval.FlushFloat32(v)
	}
	w.SetReg(l, dst.Reg, math.Float32bits(v))
}

func (ex *executor) putF16(w *Warp, l int, dst *sass.Operand, v float32) {
	w.SetReg(l, dst.Reg, uint32(fpval.F16FromFloat32(v)))
}

func (ex *executor) putF64(w *Warp, l int, dst *sass.Operand, v float64) {
	lo, hi := fpval.Split64(math.Float64bits(v))
	w.SetReg(l, dst.Reg, lo)
	w.SetReg(l, dst.Reg+1, hi)
}

// ---- arithmetic helpers ----

// mul32 computes an FP32 product. The float64 product of two float32 values
// is exact (24+24 ≤ 53 mantissa bits, exponents far inside float64's range),
// so the single float32 conversion rounds it exactly as a float32 multiply
// would. It exists because x86 takes a microcode assist on every float32
// multiply whose result is subnormal (~2 µs against ~50 ns per 32 lanes);
// the float64 route never produces a subnormal. A NaN product takes a's
// payload, quieted, whenever a is NaN: the host multiply returns whichever
// NaN operand the compiler placed first at each call site, and the executor
// tiers would disagree on a product of two NaNs.
func mul32(a, b float32) float32 {
	p := float64(a) * float64(b)
	if p != p && a != a {
		return float32(float64(a))
	}
	return float32(p)
}

// add64 computes an FP64 sum under add32's NaN rule.
func add64(a, b float64) float64 {
	s := a + b
	if s != s && a != a {
		return quiet64(a)
	}
	return s
}

// mul64 computes an FP64 product under mul32's NaN rule.
func mul64(a, b float64) float64 {
	p := a * b
	if p != p && a != a {
		return quiet64(a)
	}
	return p
}

// quiet64 sets a NaN's quiet bit, keeping its payload.
func quiet64(a float64) float64 { return math.Float64frombits(math.Float64bits(a) | 1<<51) }

// add32 computes an FP32 sum. A NaN sum takes a's payload, quieted,
// whenever a is NaN — mul32's rule: the host add returns whichever NaN
// operand the compiler placed first at each call site, so without it the
// interpreter and the closures would disagree on a sum of two NaNs.
func add32(a, b float32) float32 {
	s := a + b
	if s != s && a != a {
		return float32(float64(a))
	}
	return s
}

// fma32 computes an FP32 fused multiply-add with one rounding. a*b is exact
// in float64, so math.FMA rounds only the sum, and converting that to
// float32 rounds a second time. The two roundings agree with one unless the
// float64 sum s lands exactly on a float32 rounding midpoint (its low 29
// fraction bits are 1<<28) or lies in the float32 subnormal range, where the
// float32 grid no longer follows s's exponent. Those finite sums are redone
// exactly: TwoSum recovers the error e of s, and folding e into s's last bit
// rounds a*b+c to odd, which keeps enough bits (53 ≥ 24+2) for the float32
// conversion to round correctly. Non-finite sums keep math.FMA's bits.
func fma32(a, b, c float32) float32 {
	s := math.FMA(float64(a), float64(b), float64(c))
	u := math.Float64bits(s)
	if u<<35 != 1<<63 && u<<1 >= (1023-126)<<53 || u<<1 >= 0x7ff<<53 {
		return float32(s)
	}
	p, q := float64(a)*float64(b), float64(c)
	t := s - p
	e := p - (s - t) + (q - t)
	if e*s < 0 { // a*b+c lies between s and zero: truncate
		u--
	}
	if e != 0 { // inexact: set the sticky bit
		u |= 1
	}
	return float32(math.Float64frombits(u))
}

// MUFU special-function modes, decoded per PC into kernelMeta.sub.
const (
	mufuRCP uint8 = iota
	mufuRSQ
	mufuSQRT
	mufuSIN
	mufuCOS
	mufuEX2
	mufuLG2
	mufuPass
	mufuRCP64H
)

// mufuEval is one lane of the special-function unit: the destination
// register's bits from the source register's. The FP32 modes flush
// subnormal results to zero (hardware behaviour); inputs are taken as-is,
// so a large subnormal still reciprocates to a finite value while a
// flushed-to-zero divisor produces INF — the distinction behind the
// myocyte fast-math case study (§4.4). RCP64H approximates 1/x of the FP64
// whose high word is src and returns the high word of the result.
func mufuEval(mode uint8, src uint32) uint32 {
	x := float64(math.Float32frombits(src))
	if mode == mufuRCP64H {
		x = math.Float64frombits(uint64(src) << 32)
	}
	// A NaN source propagates quieted with its payload in every mode;
	// math.Cos and math.Log2 would return the default NaN instead.
	r := x
	if x == x {
		switch mode {
		case mufuRCP, mufuRCP64H:
			r = 1 / x
		case mufuRSQ:
			r = 1 / math.Sqrt(x)
		case mufuSQRT:
			r = math.Sqrt(x)
		case mufuSIN:
			r = math.Sin(x)
		case mufuCOS:
			r = math.Cos(x)
		case mufuEX2:
			r = math.Exp2(x)
		case mufuLG2:
			r = math.Log2(x)
		}
	}
	if mode == mufuRCP64H {
		_, hi := fpval.Split64(math.Float64bits(r))
		return hi
	}
	return math.Float32bits(fpval.FlushFloat32(float32(r)))
}

// f2fFormats unpacks an F2F site's destination and source formats, which
// decodeKernel packs into kernelMeta.sub.
func f2fFormats(sub uint8) (dst, src fpval.Format) {
	return fpval.Format(sub >> 2), fpval.Format(sub & 3)
}

// f2fEval is one lane of F2F: the destination bits (an FP64's 64, or a
// 32-bit register) from the source bits (an FP64's 64, or a 32-bit
// register whose low half holds an FP16). An FP32 result flushes under
// .FTZ.
func f2fEval(dst, src fpval.Format, ftz bool, x uint64) uint64 {
	var v float64
	switch src {
	case fpval.FP64:
		v = math.Float64frombits(x)
	case fpval.FP16:
		v = float64(fpval.F16ToFloat32(uint16(x)))
	default:
		v = float64(math.Float32frombits(uint32(x)))
	}
	switch dst {
	case fpval.FP64:
		return math.Float64bits(v)
	case fpval.FP16:
		return uint64(fpval.F16FromFloat32(float32(v)))
	}
	return uint64(out32(float32(v), ftz))
}

// redEval is RED's read-modify-write: the word stored over old for a lane
// whose source register holds val.
func redEval(op uint8, old, val uint32) uint32 {
	switch op {
	case subRedFAdd:
		return math.Float32bits(add32(math.Float32frombits(old), math.Float32frombits(val)))
	case subRedMax:
		return math.Float32bits(fmnmx32(math.Float32frombits(old), math.Float32frombits(val), false))
	case subRedMin:
		return math.Float32bits(fmnmx32(math.Float32frombits(old), math.Float32frombits(val), true))
	}
	return old + val // subRedIAdd
}

// SHFL modes, decoded per PC into kernelMeta.sub.
const (
	shflSelf uint8 = iota
	shflBFLY
	shflDOWN
	shflUP
	shflIDX
)

// shflLane returns the lane whose value SHFL delivers to lane l at offset
// off; out-of-range lanes leave l its own value.
func shflLane(mode uint8, l, off int) int {
	switch mode {
	case shflBFLY:
		return l ^ off
	case shflDOWN:
		return l + off
	case shflUP:
		return l - off
	case shflIDX:
		return off
	}
	return l
}

// fmnmx32 implements FMNMX's IEEE-2008 min/max: when exactly one operand is
// NaN it returns the other operand — the non-propagating behaviour the paper
// warns about (NVIDIA follows the 2008 standard, not 2019 NaN propagation).
func fmnmx32(a, b float32, min bool) float32 {
	an, bn := a != a, b != b
	switch {
	case an && bn:
		return float32(math.NaN())
	case an:
		return b
	case bn:
		return a
	}
	if min {
		if a < b {
			return a
		}
		return b
	}
	if a > b {
		return a
	}
	return b
}

// fchkSpecial reports whether a/b needs the slow division path: exceptional
// or subnormal operands, a zero/huge/tiny divisor, or a quotient outside the
// normal range.
func fchkSpecial(a, b float32) bool {
	ca, cb := fpval.ClassifyFloat32(a), fpval.ClassifyFloat32(b)
	if ca == fpval.NaN || ca == fpval.Inf || ca == fpval.Subnormal ||
		cb == fpval.NaN || cb == fpval.Inf || cb == fpval.Subnormal || cb == fpval.Zero {
		return true
	}
	if ca == fpval.Zero {
		return false
	}
	ea := int(math.Float32bits(a)>>23&0xFF) - 127
	eb := int(math.Float32bits(b)>>23&0xFF) - 127
	if eb >= 126 {
		// 1/b is subnormal and the SFU flushes it: the seed is unusable
		// on the fast path.
		return true
	}
	diff := ea - eb
	return diff >= 126 || diff <= -125
}

// fchkSpecial64 is fchkSpecial for FP64 divisions.
func fchkSpecial64(a, b float64) bool {
	ca, cb := fpval.ClassifyFloat64(a), fpval.ClassifyFloat64(b)
	if ca == fpval.NaN || ca == fpval.Inf || ca == fpval.Subnormal ||
		cb == fpval.NaN || cb == fpval.Inf || cb == fpval.Subnormal || cb == fpval.Zero {
		return true
	}
	if ca == fpval.Zero {
		return false
	}
	ea := int(math.Float64bits(a)>>52&0x7FF) - 1023
	eb := int(math.Float64bits(b)>>52&0x7FF) - 1023
	diff := ea - eb
	return diff >= 1022 || diff <= -1021
}

func truncToI32(v float64) int32 {
	switch {
	case math.IsNaN(v):
		return 0
	case v >= math.MaxInt32:
		return math.MaxInt32
	case v <= math.MinInt32:
		return math.MinInt32
	default:
		return int32(v)
	}
}

// Compare outcomes. Every compare sees exactly one: less, equal, greater,
// or unordered (a NaN operand; never for integers). A compare modifier is
// the set of outcomes on which it holds, a bit mask over these positions.
const (
	cmpLT = iota
	cmpEQ
	cmpGT
	cmpUN
)

// cmpSets maps each compare modifier to its outcome set. The ordered
// modifiers exclude UN — "if a or b are NaN, the predicate evaluates to
// false" (§1), the control-flow skew a NaN causes — and the U variants
// include it.
var cmpSets = map[string]uint8{
	"LT": 1 << cmpLT, "LE": 1<<cmpLT | 1<<cmpEQ, "GT": 1 << cmpGT,
	"GE": 1<<cmpGT | 1<<cmpEQ, "EQ": 1 << cmpEQ, "NE": 1<<cmpLT | 1<<cmpGT,
	"LTU": 1<<cmpLT | 1<<cmpUN, "LEU": 1<<cmpLT | 1<<cmpEQ | 1<<cmpUN,
	"GTU": 1<<cmpGT | 1<<cmpUN, "GEU": 1<<cmpGT | 1<<cmpEQ | 1<<cmpUN,
	"EQU": 1<<cmpEQ | 1<<cmpUN, "NEU": 1<<cmpLT | 1<<cmpGT | 1<<cmpUN,
}

// cmpSet returns the outcome set of a SET/SETP instruction's compare
// modifier (LT when it has none). Integer compares have no unordered
// outcome, and their U variants hold on none.
func cmpSet(in *sass.Instr) uint8 {
	set := uint8(1 << cmpLT)
	for _, m := range in.Mods {
		if s, ok := cmpSets[m]; ok {
			set = s
			break
		}
	}
	if in.Op == sass.OpISETP && set&(1<<cmpUN) != 0 {
		set = 0
	}
	return set
}

// outcomes holds the lanes of one compare that came out less, equal and
// greater; the other executing lanes compared unordered.
type outcomes struct{ lt, eq, gt uint32 }

// outcome returns lane l's bits of x ? y.
func outcome[T int32 | float32 | float64](x, y T, l int) outcomes {
	return outcomes{b2u(x < y) << uint(l), b2u(x == y) << uint(l), b2u(x > y) << uint(l)}
}

func (o outcomes) or(p outcomes) outcomes { return outcomes{o.lt | p.lt, o.eq | p.eq, o.gt | p.gt} }

// push moves every lane's bits down one and adds p, whose bits are lane
// WarpSize-1's: after one push per lane in lane order, lane l is bit l.
func (o outcomes) push(p outcomes) outcomes {
	return outcomes{o.lt>>1 | p.lt, o.eq>>1 | p.eq, o.gt>>1 | p.gt}
}

// setMasks is an outcome set as lane masks: entry o is all ones when the
// set holds on outcome o.
type setMasks [4]uint32

func setMasksOf(set uint8) (m setMasks) {
	for o := range m {
		m[o] = -(uint32(set>>uint(o)) & 1)
	}
	return m
}

// holds returns the lanes of exec whose outcome is in the set.
func (m *setMasks) holds(exec uint32, o outcomes) uint32 {
	return o.lt&m[cmpLT] | o.eq&m[cmpEQ] | o.gt&m[cmpGT] | exec&^(o.lt|o.eq|o.gt)&m[cmpUN]
}

// cmpHolds is the scalar compare the interpreter runs per lane, over the
// same outcome sets as the compiled mask forms.
func cmpHolds[T int32 | float32 | float64](set uint8, x, y T) bool {
	m := setMasksOf(set)
	return m.holds(1, outcome(x, y, 0)) != 0
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// negMask is the XOR mask of a predicate read: all ones when negated.
func negMask(neg bool) uint32 { return -b2u(neg) }

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLeU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// ParStats is always zero: launches run their blocks sequentially. It is
// kept only because the repository benchmark (perfbench) still reads it;
// drop it with that reader.
type ParStats struct{ Launches, Fallbacks uint64 }

// ParStatsSnapshot returns the zero ParStats.
func ParStatsSnapshot() ParStats { return ParStats{} }
