package sass

import (
	"fmt"
	"math"
	"strings"
)

// RZ is the zero register: reads as 0, writes are discarded.
const RZ = 255

// PT is the always-true predicate register.
const PT = 7

// NumPredRegs is the number of predicate registers (P0..P6 plus PT).
const NumPredRegs = 8

// OperandType enumerates the operand kinds GPU-FPX handles (§2.2, §3.2.1):
// REGISTER, IMM_DOUBLE, GENERIC and CBANK, plus the predicate-register and
// integer-immediate kinds needed to express complete kernels and memory
// addressing.
type OperandType uint8

const (
	OperandInvalid OperandType = iota
	// OperandReg is a general-purpose 32-bit register (FP64 values occupy
	// the pair Reg, Reg+1).
	OperandReg
	// OperandImmDouble is a floating-point immediate whose value is known
	// at compile (JIT) time, e.g. the "+INF" in "FADD RZ RZ +INF".
	OperandImmDouble
	// OperandGeneric is a textual constant such as "-QNAN" whose value the
	// analyzer recognizes by substring match at instrumentation time.
	OperandGeneric
	// OperandCBank is a constant-bank reference c[bank][offset]; its value
	// is only known at runtime.
	OperandCBank
	// OperandPred is a predicate register (P0..P6, PT), possibly negated.
	OperandPred
	// OperandImmInt is an integer immediate (addresses, shift counts,
	// raw 32-bit bit patterns for MOV32I).
	OperandImmInt
	// OperandMem is a memory reference [Rn+offset] for LDG/STG/LDS/STS.
	OperandMem
	// OperandSpecial is a special register name for S2R (SR_TID.X, ...).
	OperandSpecial
	// OperandLabel is an unresolved branch target; Resolve rewrites it to
	// an OperandImmInt instruction index.
	OperandLabel
)

// SpecialReg enumerates the special registers S2R can read.
type SpecialReg uint8

const (
	SRTidX SpecialReg = iota
	SRCtaidX
	SRNtidX
	SRNctaidX
	SRLaneID
)

var specialNames = [...]string{
	SRTidX:    "SR_TID.X",
	SRCtaidX:  "SR_CTAID.X",
	SRNtidX:   "SR_NTID.X",
	SRNctaidX: "SR_NCTAID.X",
	SRLaneID:  "SR_LANEID",
}

// String returns the special-register name.
func (s SpecialReg) String() string {
	if int(s) < len(specialNames) {
		return specialNames[s]
	}
	return "SR_?"
}

// Operand is one instruction operand. Its fields are ordered widest first
// and its narrow ones sized to their ranges, so that it packs into 56
// bytes: a kernel holds one per operand for as long as it is cached.
type Operand struct {
	// Text is the text of an OperandGeneric ("+INF", "-QNAN", ...) and the
	// target name of an OperandLabel.
	Text string

	// Imm is the value of an OperandImmDouble.
	Imm float64

	// IVal is the value of an OperandImmInt and the byte offset of an
	// OperandMem.
	IVal int64

	// Reg is the register number for OperandReg and the base address
	// register for OperandMem.
	Reg int

	// Bank and Off locate an OperandCBank value c[Bank][Off].
	Bank, Off int32

	Type OperandType

	// Neg and Abs are source modifiers (-R3, |R3|).
	Neg, Abs bool

	// Pred is the predicate register number for OperandPred; NegPred
	// marks !Pn.
	Pred    uint8
	NegPred bool

	// SR is the special register for OperandSpecial.
	SR SpecialReg
}

// Convenience constructors.

// Reg returns a register operand.
func Reg(n int) Operand { return Operand{Type: OperandReg, Reg: n} }

// NegReg returns a negated register source operand.
func NegReg(n int) Operand { return Operand{Type: OperandReg, Reg: n, Neg: true} }

// AbsReg returns an absolute-value register source operand.
func AbsReg(n int) Operand { return Operand{Type: OperandReg, Reg: n, Abs: true} }

// ImmF returns an IMM_DOUBLE operand.
func ImmF(v float64) Operand { return Operand{Type: OperandImmDouble, Imm: v} }

// Generic returns a GENERIC operand with the given text.
func Generic(s string) Operand { return Operand{Type: OperandGeneric, Text: s} }

// CBank returns a constant-bank operand c[bank][off].
func CBank(bank, off int) Operand {
	return Operand{Type: OperandCBank, Bank: int32(bank), Off: int32(off)}
}

// PredOp returns a predicate-register operand, negated if neg.
func PredOp(n int, neg bool) Operand { return Operand{Type: OperandPred, Pred: uint8(n), NegPred: neg} }

// ImmI returns an integer-immediate operand.
func ImmI(v int64) Operand { return Operand{Type: OperandImmInt, IVal: v} }

// Mem returns a memory operand [Rn+off].
func Mem(reg int, off int64) Operand { return Operand{Type: OperandMem, Reg: reg, IVal: off} }

// Special returns a special-register operand.
func Special(sr SpecialReg) Operand { return Operand{Type: OperandSpecial, SR: sr} }

// Label returns an unresolved branch-target operand.
func Label(name string) Operand { return Operand{Type: OperandLabel, Text: name} }

// IsRZ reports whether the operand is the zero register.
func (o Operand) IsRZ() bool { return o.Type == OperandReg && o.Reg == RZ }

// ---- operand-class accessors ----
//
// These let a consumer classify an operand once (per kernel, at lowering
// time) instead of re-switching on Type for every lane of every dynamic
// instruction. The device executor's lowering pass is the main client.

// LaneInvariant reports whether the operand reads the same value in every
// lane of a warp for the duration of one instruction execution: compile-time
// immediates and textual constants, constant-bank references, and the zero
// register. Register, memory, predicate and special-register operands vary
// per lane (or per warp in ways only known at execution time).
func (o *Operand) LaneInvariant() bool {
	switch o.Type {
	case OperandImmDouble, OperandGeneric, OperandImmInt:
		return true
	case OperandCBank:
		return true
	case OperandReg:
		return o.Reg == RZ
	default:
		return false
	}
}

// IsPlainReg reports whether the operand is a non-RZ register read.
func (o *Operand) IsPlainReg() bool {
	return o.Type == OperandReg && o.Reg != RZ
}

// String renders the operand in SASS syntax.
func (o Operand) String() string {
	switch o.Type {
	case OperandReg:
		s := regName(o.Reg)
		if o.Abs {
			s = "|" + s + "|"
		}
		if o.Neg {
			s = "-" + s
		}
		return s
	case OperandImmDouble:
		return formatImm(o.Imm)
	case OperandGeneric:
		return o.Text
	case OperandCBank:
		s := fmt.Sprintf("c[0x%x][0x%x]", o.Bank, o.Off)
		if o.Abs {
			s = "|" + s + "|"
		}
		if o.Neg {
			s = "-" + s
		}
		return s
	case OperandPred:
		name := "PT"
		if o.Pred != PT {
			name = fmt.Sprintf("P%d", o.Pred)
		}
		if o.NegPred {
			return "!" + name
		}
		return name
	case OperandImmInt:
		return fmt.Sprintf("0x%x", uint64(o.IVal))
	case OperandMem:
		if o.IVal != 0 {
			return fmt.Sprintf("[%s+0x%x]", regName(o.Reg), uint64(o.IVal))
		}
		return "[" + regName(o.Reg) + "]"
	case OperandSpecial:
		return o.SR.String()
	case OperandLabel:
		return "`" + o.Text + "`"
	default:
		return "<operand?>"
	}
}

func regName(n int) string {
	if n == RZ {
		return "RZ"
	}
	return fmt.Sprintf("R%d", n)
}

// formatImm renders a floating-point immediate the way SASS listings do,
// using the exceptional-value spellings the analyzer recognizes.
func formatImm(v float64) string {
	switch {
	case math.IsNaN(v):
		if math.Signbit(v) {
			return "-QNAN"
		}
		return "+QNAN"
	case math.IsInf(v, 1):
		return "+INF"
	case math.IsInf(v, -1):
		return "-INF"
	default:
		s := fmt.Sprintf("%g", v)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0" // make it visibly a float immediate
		}
		return s
	}
}
