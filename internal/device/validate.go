package device

// Launch-time kernel validation. The executors index operands and register
// pairs without per-dynamic-instruction checks — the hot path must not pay
// for malformed input that can only arrive through the raw-SASS surface
// (POST /v1/check, the fuzzer). This static pass runs once per kernel, in
// its program's decode pass, and rejects, with ErrUnsupported, everything
// that would make an executor panic: unknown opcodes, missing operands, and
// register pairs that fall off the register file.

import (
	"fmt"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// minArity is the smallest operand count each executor path indexes.
var minArity = map[sass.Op]int{
	sass.OpFADD: 3, sass.OpFADD32I: 3, sass.OpFMUL: 3, sass.OpFMUL32I: 3,
	sass.OpFFMA: 4, sass.OpFFMA32I: 4,
	sass.OpMUFU: 2,
	sass.OpDADD: 3, sass.OpDMUL: 3, sass.OpDFMA: 4,
	sass.OpFSEL: 4, sass.OpFSET: 3, sass.OpFSETP: 4, sass.OpFMNMX: 4, sass.OpDSETP: 4,
	sass.OpHADD2: 3, sass.OpHMUL2: 3, sass.OpHFMA2: 4,
	sass.OpHMMA: 4,
	sass.OpFCHK: 3,
	sass.OpF2F:  2, sass.OpI2F: 2, sass.OpF2I: 2,
	sass.OpMOV: 2, sass.OpMOV32I: 2,
	sass.OpIADD: 3, sass.OpIADD3: 4, sass.OpIMAD: 4, sass.OpISETP: 4,
	sass.OpSHL: 3, sass.OpSHR: 3, sass.OpLOP: 3, sass.OpSEL: 4,
	sass.OpLDG: 2, sass.OpSTG: 2, sass.OpLDS: 2, sass.OpSTS: 2, sass.OpLDC: 2,
	sass.OpSHFL: 3, sass.OpRED: 2, sass.OpS2R: 2,
	sass.OpBRA:  1,
	sass.OpEXIT: 0, sass.OpNOP: 0, sass.OpBAR: 0,
}

// predDest marks opcodes whose leading operand(s) are predicate
// destinations rather than a general-purpose register.
func predDest(op sass.Op) bool {
	switch op {
	case sass.OpFSETP, sass.OpDSETP, sass.OpISETP, sass.OpFCHK:
		return true
	}
	return false
}

// validateKernel returns the ErrUnsupported-wrapping error for the first
// instruction either executor could not run, or nil for a clean kernel.
func validateKernel(k *sass.Kernel) error {
	for pc := range k.Instrs {
		if err := validateInstr(k, &k.Instrs[pc]); err != nil {
			return fmt.Errorf("pc %d (%s): %w", pc, k.Instrs[pc].String(), err)
		}
	}
	return nil
}

func validateInstr(k *sass.Kernel, in *sass.Instr) error {
	min, known := minArity[in.Op]
	if !known {
		return fmt.Errorf("%w: unimplemented opcode %v", ErrUnsupported, in.Op)
	}
	if len(in.Operands) < min {
		return fmt.Errorf("%w: %v needs %d operands, has %d", ErrUnsupported, in.Op, min, len(in.Operands))
	}

	ops := in.Operands
	switch in.Op {
	case sass.OpEXIT, sass.OpNOP, sass.OpBAR, sass.OpBRA:
		return nil
	case sass.OpSTG, sass.OpSTS, sass.OpRED:
		// Stores: address base then data register.
		if ops[0].Type != sass.OperandMem && ops[0].Type != sass.OperandReg {
			return fmt.Errorf("%w: %v address must be [Rn+off]", ErrUnsupported, in.Op)
		}
		if ops[1].Type != sass.OperandReg {
			return fmt.Errorf("%w: %v data must be a register", ErrUnsupported, in.Op)
		}
	default:
		if predDest(in.Op) {
			if ops[0].Type != sass.OperandPred {
				return fmt.Errorf("%w: %v destination must be a predicate", ErrUnsupported, in.Op)
			}
		} else if ops[0].Type != sass.OperandReg {
			return fmt.Errorf("%w: %v destination must be a register", ErrUnsupported, in.Op)
		}
	}

	// MUFU.RCP64H computes on the high half of an FP64 pair: the detector's
	// pair convention needs the low partner (Rd-1), so R0 cannot host the
	// high word.
	if in.Op == sass.OpMUFU && in.Is64H() && ops[0].Reg == 0 {
		return fmt.Errorf("%w: MUFU.*64H destination must be R1 or higher (register pair low half)", ErrUnsupported)
	}

	// Register pairs must stay inside the register file, and RZ has no pair
	// partner: both executors would index past the per-lane register slice.
	for _, wi := range widePositions(in) {
		if wi >= len(ops) {
			continue
		}
		op := &ops[wi]
		if op.Type != sass.OperandReg {
			continue
		}
		if op.Reg == sass.RZ {
			return fmt.Errorf("%w: RZ cannot hold a 64-bit register pair", ErrUnsupported)
		}
		// Finalize sizes NumRegs from the operands it recognises as wide;
		// pairs it does not (e.g. F2F.F64 destinations) can exceed the file.
		if op.Reg+2 > k.NumRegs {
			return fmt.Errorf("%w: register pair R%d:R%d exceeds register file (%d regs)", ErrUnsupported, op.Reg, op.Reg+1, k.NumRegs)
		}
	}
	return nil
}

// widePositions returns the operand indexes that name an FP64 (or 64-bit
// memory) register pair for this instruction, mirroring exactly where the
// executors read Reg and Reg+1.
func widePositions(in *sass.Instr) []int {
	switch in.Op {
	case sass.OpDADD, sass.OpDMUL:
		return []int{0, 1, 2}
	case sass.OpDFMA:
		return []int{0, 1, 2, 3}
	case sass.OpDSETP:
		return []int{2, 3}
	case sass.OpLDG:
		if in.HasMod("64") {
			return []int{0}
		}
	case sass.OpSTG:
		if in.HasMod("64") {
			return []int{1}
		}
	case sass.OpFCHK:
		if in.HasMod("F64") {
			return []int{1, 2}
		}
	case sass.OpI2F:
		if in.HasMod("F64") {
			return []int{0}
		}
	case sass.OpF2I:
		if in.HasMod("F64") {
			return []int{1}
		}
	case sass.OpF2F:
		var w []int
		if dst, src, ok := in.ConvFormats(); ok {
			if dst == fpval.FP64 {
				w = append(w, 0)
			}
			if src == fpval.FP64 {
				w = append(w, 1)
			}
		}
		return w
	case sass.OpHMMA:
		if f, ok := in.HMMADestFormat(); ok && f == fpval.FP32 {
			return []int{0, 3}
		}
	}
	return nil
}
