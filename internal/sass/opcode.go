// Package sass models the SASS-level ISA that GPU-FPX instruments: the
// floating-point compute and control-flow opcodes of Table 1 in the paper,
// the operand kinds of NVBit's operand model (REG, IMM_DOUBLE, GENERIC,
// CBANK), the FP64 register-pair convention, and enough integer, memory and
// branch opcodes to express whole kernels. It also provides a text assembler
// and disassembler for the compute-capability 7.x–8.x style syntax
//
//	Op DestReg, Param1, Param2 ... ;
package sass

import "gpufpx/internal/fpval"

// Op is a SASS base opcode. Modifiers such as .RCP or .FTZ are carried
// separately on the instruction.
type Op uint8

const (
	OpInvalid Op = iota

	// FP32 computation opcodes (Table 1, left column).
	OpFADD
	OpFADD32I
	OpFMUL
	OpFMUL32I
	OpFFMA
	OpFFMA32I
	OpMUFU // multi-function operation; the unit is a modifier (RCP, RSQ, ...)

	// FP64 computation opcodes.
	OpDADD
	OpDMUL
	OpDFMA

	// FP32/FP64 control-flow opcodes (Table 1, right column).
	OpFSEL
	OpFSET
	OpFSETP
	OpFMNMX
	OpDSETP

	// FP16 extension opcodes (the paper's planned E_fp=FP16 support).
	OpHADD2
	OpHMUL2
	OpHFMA2

	// Tensor-core matrix multiply-accumulate (the instruction class §6 lists
	// as future work). HMMA.884.<dtype>.<ctype> computes an 8×8×4 warp-wide
	// D = A×B + C with FP16 A/B fragments; dtype/ctype select FP32 or FP16
	// accumulators.
	OpHMMA

	// Division support: FCHK guards software division expansions (§2.2).
	OpFCHK

	// Conversions.
	OpF2F // F2F.F64.F32 / F2F.F32.F64 via modifiers
	OpI2F
	OpF2I

	// Integer and data movement.
	OpMOV
	OpMOV32I
	OpIADD
	OpIADD3
	OpIMAD
	OpISETP
	OpSHL
	OpSHR
	OpLOP // logic op; AND/OR/XOR via modifier
	OpSEL

	// Memory.
	OpLDG
	OpSTG
	OpLDS
	OpSTS
	OpLDC

	// Warp shuffle: exchange register values between lanes without
	// shared memory (SHFL.UP/DOWN/BFLY/IDX).
	OpSHFL

	// Atomic reduction to global memory without a return value
	// (RED.E.ADD / RED.E.IADD / RED.E.MAX / RED.E.MIN).
	OpRED

	// Special registers and control.
	OpS2R
	OpBRA
	OpEXIT
	OpNOP
	OpBAR // barrier (BAR.SYNC)

	opMax // sentinel
)

// DestKind says what an opcode's leading operands are.
type DestKind uint8

const (
	// DestRegister: operand 0 is the destination register.
	DestRegister DestKind = iota
	// DestPredicate: operand 0 is a predicate destination (FCHK Pd, A, B).
	DestPredicate
	// DestPredicates: operands 0 and 1 are predicate destinations
	// (FSETP Pd, Pq, A, B, Pc).
	DestPredicates
	// DestNone: no destination; every operand is a source (stores and
	// reductions: address, then data).
	DestNone
	// DestControl: no destination and no sources (branches, EXIT, NOP,
	// BAR).
	DestControl
)

// Unit is the functional unit the cost model prices an opcode on.
type Unit uint8

const (
	UnitMisc   Unit = iota // EXIT, NOP, BAR
	UnitInt                // integer and data movement
	UnitFP32               // FP32 arithmetic, compares and conversions
	UnitFP64               // FP64 arithmetic and compares
	UnitFP16               // packed FP16 arithmetic
	UnitMUFU               // special-function unit
	UnitTensor             // tensor-core HMMA
	UnitGlobal             // global memory
	UnitAtomic             // global-memory reductions
	UnitShared             // shared and constant memory, warp shuffles
	UnitBranch             // branches

	NumUnits = iota
)

// opClass is an opcode's family in Algorithm 1's terms.
type opClass uint8

const (
	classOther     opClass = iota // integer, memory and control
	classFP32                     // FP32 compute ("Op has FP32 prefix")
	classFP64                     // FP64 compute ("Op has FP64 prefix")
	classFP16                     // FP16 compute
	classFPControl                // FP control flow (Table 1, right column)
	classFPOther                  // conversions, FCHK and HMMA
)

// fpFmt is an optional FP format: 0 for none, else the format plus one.
type fpFmt uint8

const (
	noFmt fpFmt = iota
	f32
	f64
	f16
)

func (f fpFmt) format() (fpval.Format, bool) {
	if f == noFmt {
		return 0, false
	}
	return fpval.Format(f - 1), true
}

// opInfo is one opcode's row: everything about its shape that does not
// depend on modifiers. The modifier-dependent part, which operands are
// register pairs, is Instr.PairMask, which reads pairs and pairMod.
type opInfo struct {
	name  string
	arity int // the fewest operands the executors index
	dest  DestKind
	class opClass
	dst   fpFmt // FP destination format
	src   fpFmt // FP source format
	unit  Unit
	// pairs has bit n set when operand n is a register pair (Rn, Rn+1);
	// when pairMod is set, only in instructions carrying that modifier.
	pairs   uint8
	pairMod string
}

var opTable = [opMax]opInfo{
	OpInvalid: {name: "<invalid>"},
	OpFADD:    {"FADD", 3, DestRegister, classFP32, f32, f32, UnitFP32, 0, ""},
	OpFADD32I: {"FADD32I", 3, DestRegister, classFP32, f32, f32, UnitFP32, 0, ""},
	OpFMUL:    {"FMUL", 3, DestRegister, classFP32, f32, f32, UnitFP32, 0, ""},
	OpFMUL32I: {"FMUL32I", 3, DestRegister, classFP32, f32, f32, UnitFP32, 0, ""},
	OpFFMA:    {"FFMA", 4, DestRegister, classFP32, f32, f32, UnitFP32, 0, ""},
	OpFFMA32I: {"FFMA32I", 4, DestRegister, classFP32, f32, f32, UnitFP32, 0, ""},
	OpMUFU:    {"MUFU", 2, DestRegister, classFP32, f32, f32, UnitMUFU, 0, ""},
	OpDADD:    {"DADD", 3, DestRegister, classFP64, f64, f64, UnitFP64, 0b111, ""},
	OpDMUL:    {"DMUL", 3, DestRegister, classFP64, f64, f64, UnitFP64, 0b111, ""},
	OpDFMA:    {"DFMA", 4, DestRegister, classFP64, f64, f64, UnitFP64, 0b1111, ""},
	OpFSEL:    {"FSEL", 4, DestRegister, classFPControl, f32, f32, UnitFP32, 0, ""},
	OpFSET:    {"FSET", 3, DestRegister, classFPControl, noFmt, f32, UnitFP32, 0, ""},
	OpFSETP:   {"FSETP", 4, DestPredicates, classFPControl, noFmt, f32, UnitFP32, 0, ""},
	OpFMNMX:   {"FMNMX", 4, DestRegister, classFPControl, f32, f32, UnitFP32, 0, ""},
	OpDSETP:   {"DSETP", 4, DestPredicates, classFPControl, noFmt, f64, UnitFP64, 0b1100, ""},
	OpHADD2:   {"HADD2", 3, DestRegister, classFP16, f16, f16, UnitFP16, 0, ""},
	OpHMUL2:   {"HMUL2", 3, DestRegister, classFP16, f16, f16, UnitFP16, 0, ""},
	OpHFMA2:   {"HFMA2", 4, DestRegister, classFP16, f16, f16, UnitFP16, 0, ""},
	OpHMMA:    {"HMMA", 4, DestRegister, classFPOther, noFmt, noFmt, UnitTensor, 0, ""},
	OpFCHK:    {"FCHK", 3, DestPredicate, classFPOther, noFmt, f32, UnitFP32, 0b110, "F64"},
	OpF2F:     {"F2F", 2, DestRegister, classFPOther, noFmt, noFmt, UnitFP32, 0, ""},
	OpI2F:     {"I2F", 2, DestRegister, classFPOther, noFmt, noFmt, UnitFP32, 0b1, "F64"},
	OpF2I:     {"F2I", 2, DestRegister, classFPOther, noFmt, noFmt, UnitFP32, 0b10, "F64"},
	OpMOV:     {"MOV", 2, DestRegister, classOther, noFmt, noFmt, UnitInt, 0, ""},
	OpMOV32I:  {"MOV32I", 2, DestRegister, classOther, noFmt, noFmt, UnitInt, 0, ""},
	OpIADD:    {"IADD", 3, DestRegister, classOther, noFmt, noFmt, UnitInt, 0, ""},
	OpIADD3:   {"IADD3", 4, DestRegister, classOther, noFmt, noFmt, UnitInt, 0, ""},
	OpIMAD:    {"IMAD", 4, DestRegister, classOther, noFmt, noFmt, UnitInt, 0, ""},
	OpISETP:   {"ISETP", 4, DestPredicates, classOther, noFmt, noFmt, UnitInt, 0, ""},
	OpSHL:     {"SHL", 3, DestRegister, classOther, noFmt, noFmt, UnitInt, 0, ""},
	OpSHR:     {"SHR", 3, DestRegister, classOther, noFmt, noFmt, UnitInt, 0, ""},
	OpLOP:     {"LOP", 3, DestRegister, classOther, noFmt, noFmt, UnitInt, 0, ""},
	OpSEL:     {"SEL", 4, DestRegister, classOther, noFmt, noFmt, UnitInt, 0, ""},
	OpLDG:     {"LDG", 2, DestRegister, classOther, noFmt, noFmt, UnitGlobal, 0b1, "64"},
	OpSTG:     {"STG", 2, DestNone, classOther, noFmt, noFmt, UnitGlobal, 0b10, "64"},
	OpLDS:     {"LDS", 2, DestRegister, classOther, noFmt, noFmt, UnitShared, 0, ""},
	OpSTS:     {"STS", 2, DestNone, classOther, noFmt, noFmt, UnitShared, 0, ""},
	OpLDC:     {"LDC", 2, DestRegister, classOther, noFmt, noFmt, UnitShared, 0, ""},
	OpSHFL:    {"SHFL", 3, DestRegister, classOther, noFmt, noFmt, UnitShared, 0, ""},
	OpRED:     {"RED", 2, DestNone, classOther, noFmt, noFmt, UnitAtomic, 0, ""},
	OpS2R:     {"S2R", 2, DestRegister, classOther, noFmt, noFmt, UnitInt, 0, ""},
	OpBRA:     {"BRA", 1, DestControl, classOther, noFmt, noFmt, UnitBranch, 0, ""},
	OpEXIT:    {"EXIT", 0, DestControl, classOther, noFmt, noFmt, UnitMisc, 0, ""},
	OpNOP:     {"NOP", 0, DestControl, classOther, noFmt, noFmt, UnitMisc, 0, ""},
	OpBAR:     {"BAR", 0, DestControl, classOther, noFmt, noFmt, UnitMisc, 0, ""},
}

// info returns the opcode's row; opcodes past the table share OpInvalid's.
func (o Op) info() *opInfo {
	if o < opMax {
		return &opTable[o]
	}
	return &opTable[OpInvalid]
}

// Known reports whether the opcode is one the executors implement.
func (o Op) Known() bool { return o > OpInvalid && o < opMax }

// MinOperands returns the fewest operands the executors index for the
// opcode.
func (o Op) MinOperands() int { return o.info().arity }

// Dest returns what the opcode's leading operands are.
func (o Op) Dest() DestKind { return o.info().dest }

// Unit returns the functional unit the cost model prices the opcode on.
func (o Op) Unit() Unit { return o.info().unit }

// String returns the SASS mnemonic.
func (o Op) String() string {
	if o < opMax {
		return opTable[o].name
	}
	return "<op?>"
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, opMax)
	for op := Op(1); op < opMax; op++ {
		m[opTable[op].name] = op
	}
	return m
}()

// OpByName looks an opcode up by mnemonic.
func OpByName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}

// IsFP32Compute reports whether the opcode is an FP32 computation opcode
// with an FP32 destination register ("Op has FP32 prefix" in Algorithm 1).
func (o Op) IsFP32Compute() bool { return o.info().class == classFP32 }

// IsFP64Compute reports whether the opcode is an FP64 computation opcode
// writing a register pair ("Op has FP64 prefix").
func (o Op) IsFP64Compute() bool { return o.info().class == classFP64 }

// IsFP16Compute reports whether the opcode is one of the FP16 extension
// opcodes.
func (o Op) IsFP16Compute() bool { return o.info().class == classFP16 }

// IsControlFlowFP reports whether the opcode is one of the floating-point
// control-flow opcodes (Table 1, right column) that BinFPE misses and the
// GPU-FPX analyzer tracks: selections, comparisons and min/max, which can
// silently swallow or reroute exceptional values.
func (o Op) IsControlFlowFP() bool { return o.info().class == classFPControl }

// IsFP reports whether the opcode consumes or produces floating-point
// values at all (compute, control-flow, conversions, tensor ops, or FCHK).
func (o Op) IsFP() bool { return o.info().class != classOther }

// DestFormat returns the floating-point format of the destination register
// for FP compute opcodes, and whether there is an FP destination at all.
// Control-flow opcodes FSETP/DSETP write predicates, FSET writes an integer
// mask, so they report no FP destination — exactly why a destination-only
// checker (BinFPE) cannot see them.
func (o Op) DestFormat() (fpval.Format, bool) { return o.info().dst.format() }

// SrcFormat returns the floating-point format of the source operands of an
// FP opcode (the comparison opcodes read FP sources even though they do not
// write an FP destination).
func (o Op) SrcFormat() (fpval.Format, bool) { return o.info().src.format() }

// WritesPredicate reports whether the opcode's first operand is a predicate
// register destination.
func (o Op) WritesPredicate() bool {
	d := o.info().dest
	return d == DestPredicate || d == DestPredicates
}
