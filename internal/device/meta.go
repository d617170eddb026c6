package device

import "gpufpx/internal/sass"

// kernelMeta is the per-kernel decode pass: everything the executor's
// per-dynamic-instruction hot path can know statically, precomputed once
// per *sass.Kernel and indexed by PC. With the compile cache sharing one
// immutable kernel across runs, this decode is amortized over every launch
// of the kernel in the whole evaluation, not just one.
type kernelMeta struct {
	// cost is instrCost per PC.
	cost []uint64
	// isFP marks floating-point opcodes per PC.
	isFP []bool
	// guardPT marks instructions guarded by the always-true @PT predicate
	// (the overwhelmingly common case): only they join a fused region body.
	guardPT []bool
	// ftz is HasMod("FTZ") per PC; the lane loop would otherwise rescan the
	// modifier list for every active lane of every dynamic instruction.
	ftz []bool
	// cmp is the compare modifier's outcome set (see cmpSet) of SET/SETP
	// instructions per PC.
	cmp []uint8
	// sub selects the opcode-specific variant per PC (see decodeKernel):
	// the SETP combiner, LOP/RED operation, 64-bit LDG/STG, F64
	// conversions, MUFU mode (mufu*), F2F formats (dst<<2 | src, see
	// f2fFormats) and SHFL mode (shfl*). Every tier reads it, so no
	// executor parses a modifier string.
	sub []uint8
	// hasBar reports whether the kernel contains a BAR instruction, which
	// selects the round-robin block scheduler.
	hasBar bool
	// verr is the static validation verdict (see validate.go): non-nil
	// kernels are rejected at launch time with ErrUnsupported instead of
	// panicking mid-execution.
	verr error
}

// sub values. One opcode occupies each PC, so the codes can overlap across
// opcode families.
const (
	subSetpAnd = 0 // FSETP/DSETP/ISETP .AND (default)
	subSetpOr  = 1 // .OR
	subSetpXor = 2 // .XOR

	subLopAnd = 0 // LOP .AND (default)
	subLopOr  = 1 // .OR
	subLopXor = 2 // .XOR

	subRedIAdd = 0 // RED .IADD (default)
	subRedFAdd = 1 // .ADD
	subRedMax  = 2 // .MAX
	subRedMin  = 3 // .MIN

	subWide = 1 // LDG/STG .64, FCHK/I2F/F2I .F64, FSET .BF
)

// program is a kernel's executable form: the decode pass, the lowered
// thunks and the fused regions, built together once per kernel and owned
// by it (sass.Kernel.Program), so it is collected with the kernel.
type program struct {
	meta *kernelMeta
	low  *loweredKernel
	// fk is nil for kernels that fail static validation; those never
	// launch.
	fk *fusedKernel
}

// programFor returns the kernel's program, building it on first use.
func programFor(k *sass.Kernel) *program {
	return k.Program(buildProgram).(*program)
}

func buildProgram(k *sass.Kernel) any {
	m := decodeKernel(k)
	p := &program{meta: m, low: lowerKernel(k, m)}
	lowKernels.Add(1)
	lowInstrs.Add(p.low.instrs)
	if m.verr == nil {
		p.fk = fuseKernel(k, m, p.low)
		fuseKernelsN.Add(1)
		fuseRegionsN.Add(p.fk.seqs)
		fuseInstrsN.Add(p.fk.fusedInstrs)
	}
	return p
}

func decodeKernel(k *sass.Kernel) *kernelMeta {
	n := len(k.Instrs)
	m := &kernelMeta{
		cost:    make([]uint64, n),
		isFP:    make([]bool, n),
		guardPT: make([]bool, n),
		ftz:     make([]bool, n),
		cmp:     make([]uint8, n),
		sub:     make([]uint8, n),
		verr:    validateKernel(k),
	}
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		m.cost[pc] = instrCost(in)
		m.isFP[pc] = in.Op.IsFP()
		m.guardPT[pc] = in.Guard == sass.PT && !in.GuardNeg
		m.ftz[pc] = in.HasMod("FTZ")
		if in.Op == sass.OpBAR {
			m.hasBar = true
		}
		switch in.Op {
		case sass.OpFSET:
			m.cmp[pc] = cmpSet(in)
			if in.HasMod("BF") {
				m.sub[pc] = subWide
			}
		case sass.OpFSETP, sass.OpDSETP, sass.OpISETP:
			m.cmp[pc] = cmpSet(in)
			switch {
			case in.HasMod("OR"):
				m.sub[pc] = subSetpOr
			case in.HasMod("XOR"):
				m.sub[pc] = subSetpXor
			}
		case sass.OpLOP:
			switch {
			case in.HasMod("OR"):
				m.sub[pc] = subLopOr
			case in.HasMod("XOR"):
				m.sub[pc] = subLopXor
			}
		case sass.OpRED:
			switch {
			case in.HasMod("IADD"):
				m.sub[pc] = subRedIAdd
			case in.HasMod("ADD"):
				m.sub[pc] = subRedFAdd
			case in.HasMod("MAX"):
				m.sub[pc] = subRedMax
			case in.HasMod("MIN"):
				m.sub[pc] = subRedMin
			}
		case sass.OpLDG, sass.OpSTG, sass.OpFCHK, sass.OpI2F, sass.OpF2I:
			if in.PairMask() != 0 {
				m.sub[pc] = subWide
			}
		case sass.OpMUFU:
			m.sub[pc] = mufuMode(in)
		case sass.OpF2F:
			if dst, src, ok := in.ConvFormats(); ok {
				m.sub[pc] = uint8(dst)<<2 | uint8(src)
			}
		case sass.OpSHFL:
			switch {
			case in.HasMod("BFLY"):
				m.sub[pc] = shflBFLY
			case in.HasMod("DOWN"):
				m.sub[pc] = shflDOWN
			case in.HasMod("UP"):
				m.sub[pc] = shflUP
			case in.HasMod("IDX"):
				m.sub[pc] = shflIDX
			}
		}
	}
	return m
}

// mufuModes maps MUFU's first modifier to its mode; any other is a
// pass-through.
var mufuModes = map[string]uint8{
	"RCP": mufuRCP, "RSQ": mufuRSQ, "SQRT": mufuSQRT, "SIN": mufuSIN,
	"COS": mufuCOS, "EX2": mufuEX2, "LG2": mufuLG2,
}

// mufuMode decodes a MUFU instruction's mode. Any 64H modifier is the
// FP64 reciprocal seed.
func mufuMode(in *sass.Instr) uint8 {
	if in.Is64H() {
		return mufuRCP64H
	}
	if len(in.Mods) > 0 {
		if mode, ok := mufuModes[in.Mods[0]]; ok {
			return mode
		}
	}
	return mufuPass
}
