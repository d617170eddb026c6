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

	"gpufpx/internal/sass"
)

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
	if !in.Op.Known() {
		return fmt.Errorf("%w: unimplemented opcode %v", ErrUnsupported, in.Op)
	}
	if min := in.Op.MinOperands(); len(in.Operands) < min {
		return fmt.Errorf("%w: %v needs %d operands, has %d", ErrUnsupported, in.Op, min, len(in.Operands))
	}

	ops := in.Operands
	switch in.Op.Dest() {
	case sass.DestControl:
		return nil
	case sass.DestNone:
		// Stores: address base then data register.
		if ops[0].Type != sass.OperandMem && ops[0].Type != sass.OperandReg {
			return fmt.Errorf("%w: %v address must be [Rn+off]", ErrUnsupported, in.Op)
		}
		if ops[1].Type != sass.OperandReg {
			return fmt.Errorf("%w: %v data must be a register", ErrUnsupported, in.Op)
		}
	case sass.DestPredicate, sass.DestPredicates:
		if ops[0].Type != sass.OperandPred {
			return fmt.Errorf("%w: %v destination must be a predicate", ErrUnsupported, in.Op)
		}
	default:
		if ops[0].Type != sass.OperandReg {
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
	pairs := in.PairMask()
	for wi := range ops {
		op := &ops[wi]
		if pairs>>wi&1 == 0 || op.Type != sass.OperandReg {
			continue
		}
		if op.Reg == sass.RZ {
			return fmt.Errorf("%w: RZ cannot hold a 64-bit register pair", ErrUnsupported)
		}
		// Finalize sizes NumRegs by the same pair rule, so only a kernel
		// that did not go through it can name a pair past the file.
		if op.Reg+2 > k.NumRegs {
			return fmt.Errorf("%w: register pair R%d:R%d exceeds register file (%d regs)", ErrUnsupported, op.Reg, op.Reg+1, k.NumRegs)
		}
	}
	return nil
}
