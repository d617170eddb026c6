package sass

import (
	"fmt"
	"strings"
	"sync"

	"gpufpx/internal/fpval"
)

// SourceLoc identifies the CUDA source line an instruction was compiled
// from. It is empty for closed-source (binary-only) kernels, in which case
// reports print "/unknown_path", matching the paper's listings.
type SourceLoc struct {
	File string
	Line int
}

// IsKnown reports whether source information is available.
func (l SourceLoc) IsKnown() bool { return l.File != "" }

// String renders the location as file:line, or /unknown_path when sources
// are unavailable.
func (l SourceLoc) String() string {
	if !l.IsKnown() {
		return "/unknown_path"
	}
	return fmt.Sprintf("%s:%d", l.File, l.Line)
}

// Instr is one SASS instruction.
type Instr struct {
	// PC is the index of the instruction within its kernel; it doubles as
	// the instruction's location id for exception records.
	PC int

	Op Op
	// Mods are the dot modifiers in order, e.g. ["RCP"] for MUFU.RCP,
	// ["LT", "AND"] for FSETP.LT.AND, ["FTZ"] for FADD.FTZ,
	// ["E", "64"] for LDG.E.64.
	Mods []string

	// Guard is the guard predicate register (@P0 ...); GuardNeg marks
	// @!P0. A nil guard (Pred == PT, NegPred == false) always executes.
	Guard    int
	GuardNeg bool

	Operands []Operand

	// Loc is the source location, when known.
	Loc SourceLoc

	// str is the cached String rendering, filled by Render before the
	// instruction's kernel is published to the shared compile cache.
	str string
}

// NewInstr builds an unguarded instruction.
func NewInstr(op Op, operands ...Operand) Instr {
	return Instr{Op: op, Guard: PT, Operands: operands}
}

// WithMods returns a copy of the instruction with the given modifiers.
func (i Instr) WithMods(mods ...string) Instr {
	i.Mods = mods
	return i
}

// WithGuard returns a copy of the instruction guarded by @Pn or @!Pn.
func (i Instr) WithGuard(pred int, neg bool) Instr {
	i.Guard = pred
	i.GuardNeg = neg
	return i
}

// WithLoc returns a copy of the instruction tagged with a source location.
func (i Instr) WithLoc(file string, line int) Instr {
	i.Loc = SourceLoc{File: file, Line: line}
	return i
}

// HasMod reports whether the instruction carries the given dot modifier.
func (i *Instr) HasMod(mod string) bool {
	for _, m := range i.Mods {
		if m == mod {
			return true
		}
	}
	return false
}

// OpcodeText returns the full dotted opcode, e.g. "MUFU.RCP64H" — the text
// Algorithm 1 inspects for "MUFU.RCP" and "64H".
func (i *Instr) OpcodeText() string {
	if len(i.Mods) == 0 {
		return i.Op.String()
	}
	return i.Op.String() + "." + strings.Join(i.Mods, ".")
}

// IsRcp reports whether the instruction is a reciprocal MUFU
// (MUFU.RCP or MUFU.RCP64H) — the opcodes whose NaN/INF results are
// classified as division by zero (Algorithm 1, line 2).
func (i *Instr) IsRcp() bool {
	if i.Op != OpMUFU {
		return false
	}
	for _, m := range i.Mods {
		if strings.HasPrefix(m, "RCP") {
			return true
		}
	}
	return false
}

// Is64H reports whether the opcode text contains 64H, meaning the
// destination register holds the high 32 bits of an FP64 value and the pair
// is (Rd-1, Rd) rather than (Rd, Rd+1) — Algorithm 1, lines 3-4 and 12-16.
func (i *Instr) Is64H() bool {
	for _, m := range i.Mods {
		if strings.Contains(m, "64H") {
			return true
		}
	}
	return false
}

// HMMADestFormat returns the accumulator format of a tensor-core HMMA
// instruction — the first format modifier after the shape (HMMA.884.F32.F32
// accumulates in FP32 register pairs, HMMA.884.F16.F16 / HMMA.884.BF16.BF16
// in packed 16-bit single registers). ok is false for non-HMMA instructions
// or malformed modifier lists.
func (i *Instr) HMMADestFormat() (fpval.Format, bool) {
	if i.Op != OpHMMA || len(i.Mods) < 2 {
		return 0, false
	}
	return modFormat(i.Mods[1])
}

// ConvFormats returns a conversion's destination and source formats: its
// first two format modifiers, in modifier order (F2F.F32.F64 narrows FP64
// to FP32). Other modifiers, such as .FTZ, may sit anywhere and are
// skipped. ok is false unless two formats are named.
func (i *Instr) ConvFormats() (dst, src fpval.Format, ok bool) {
	n := 0
	for _, m := range i.Mods {
		f, isFmt := modFormat(m)
		if !isFmt {
			continue
		}
		if n == 1 {
			return dst, f, true
		}
		dst, n = f, 1
	}
	return 0, 0, false
}

// modFormat maps a format modifier (F32, F64, F16, BF16) to its format.
func modFormat(mod string) (fpval.Format, bool) {
	switch mod {
	case "F32":
		return fpval.FP32, true
	case "F64":
		return fpval.FP64, true
	case "F16":
		return fpval.FP16, true
	case "BF16":
		return fpval.BF16, true
	}
	return 0, false
}

// HMMAInputFormat returns the format of the A/B multiplicand fragments:
// BF16 when any modifier names it (HMMA.884.BF16.BF16, or the trailing
// input-type modifier of HMMA.884.F32.F32.BF16), FP16 otherwise — mirroring
// how real SASS marks bfloat16 tensor ops with an extra modifier.
func (i *Instr) HMMAInputFormat() fpval.Format {
	for _, m := range i.Mods {
		if m == "BF16" {
			return fpval.BF16
		}
	}
	return fpval.FP16
}

// DestReg returns the destination general-purpose register number, if the
// instruction writes one. Predicate-writing and store instructions report
// false.
func (i *Instr) DestReg() (int, bool) {
	if len(i.Operands) == 0 {
		return 0, false
	}
	switch i.Op {
	case OpSTG, OpSTS, OpRED, OpBRA, OpEXIT, OpNOP, OpBAR, OpFSETP, OpDSETP, OpISETP, OpFCHK:
		return 0, false
	}
	if i.Operands[0].Type != OperandReg {
		return 0, false
	}
	return i.Operands[0].Reg, true
}

// SrcOperands returns the source operands: everything after the destination
// (register or predicate pair) operand(s). For predicate-writing compares
// the two leading predicate destinations are skipped.
func (i *Instr) SrcOperands() []Operand {
	switch i.Op {
	case OpSTG, OpSTS, OpRED:
		// Stores and reductions have no destination register: address and
		// data are both sources.
		return i.Operands
	case OpFSETP, OpDSETP, OpISETP:
		// FSETP Pd, Pq, A, B, Pc — two predicate destinations.
		if len(i.Operands) > 2 {
			return i.Operands[2:]
		}
		return nil
	case OpFCHK:
		// FCHK Pd, A, B.
		if len(i.Operands) > 1 {
			return i.Operands[1:]
		}
		return nil
	case OpBRA, OpEXIT, OpNOP, OpBAR:
		return nil
	default:
		if len(i.Operands) > 1 {
			return i.Operands[1:]
		}
		return nil
	}
}

// AnalyzerOperands appends the operands an exception-flow analyzer tracks —
// the destination register first (when the instruction writes one), then the
// non-predicate sources (Listing 1's reg_num_list plus cbank_list) — and
// returns the extended slice. Passing a reused buffer keeps per-site
// compilation allocation-free.
func (i *Instr) AnalyzerOperands(buf []Operand) []Operand {
	if d, ok := i.DestReg(); ok {
		buf = append(buf, Reg(d))
	}
	for _, s := range i.SrcOperands() {
		if s.Type == OperandPred {
			continue
		}
		buf = append(buf, s)
	}
	return buf
}

// SharesDestWithSource reports whether the destination register also appears
// as a source (e.g. "FADD R6, R1, R6"), the case §3.2.1 highlights: the
// analyzer must read sources *before* execution or the destination write
// clobbers them.
func (i *Instr) SharesDestWithSource() bool {
	d, ok := i.DestReg()
	if !ok || d == RZ {
		return false
	}
	wide := i.Op.IsFP64Compute() // pair (d, d+1)
	for _, s := range i.SrcOperands() {
		if s.Type != OperandReg && s.Type != OperandMem {
			continue
		}
		if s.Reg == d {
			return true
		}
		if wide && (s.Reg == d+1 || s.Reg+1 == d) {
			return true
		}
	}
	return false
}

// String renders the instruction in SASS listing syntax, including the
// guard predicate and the trailing " ;". Kernels that went through the
// compile cache carry the rendering pre-built (see Render), so per-run
// location tables don't rebuild the same strings run after run.
func (i Instr) String() string {
	if i.str != "" {
		return i.str
	}
	return i.render()
}

// Render builds and caches the String rendering in place. It is called once
// per instruction while a kernel is still private to the compile pipeline;
// afterwards the cached kernel is shared read-only, so String never writes.
func (i *Instr) Render() string {
	if i.str == "" {
		i.str = i.render()
	}
	return i.str
}

func (i Instr) render() string {
	var b strings.Builder
	if !(i.Guard == PT && !i.GuardNeg) {
		b.WriteByte('@')
		if i.GuardNeg {
			b.WriteByte('!')
		}
		if i.Guard == PT {
			b.WriteString("PT")
		} else {
			fmt.Fprintf(&b, "P%d", i.Guard)
		}
		b.WriteByte(' ')
	}
	b.WriteString(i.OpcodeText())
	for n, op := range i.Operands {
		if n == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		b.WriteString(op.String())
	}
	b.WriteString(" ;")
	return b.String()
}

// Kernel is a SASS function: a named instruction sequence.
type Kernel struct {
	// Name is the (possibly mangled or templated) kernel name as it
	// appears in reports.
	Name string
	// Instrs is the instruction sequence; Instr.PC indexes into it.
	Instrs []Instr
	// NumRegs is the highest general-purpose register used + 1 (the FP64
	// pair convention counts the high register too).
	NumRegs int
	// SharedBytes is the static shared-memory requirement in bytes.
	SharedBytes int
	// SourceFile names the originating .cu file; empty for binary-only
	// kernels (closed-source libraries).
	SourceFile string

	// prog is the executable form the device builds on first use (see
	// Program). It hangs off the kernel so that it is collected with it.
	progOnce sync.Once
	prog     any
}

// Program returns the kernel's executable program, calling build to make
// it on the first call; every later call, from any goroutine, returns that
// same value. The value is opaque here: the device package owns its type.
// A kernel must not change after its first Program call.
func (k *Kernel) Program(build func(*Kernel) any) any {
	k.progOnce.Do(func() { k.prog = build(k) })
	return k.prog
}

// Finalize assigns PCs, computes NumRegs, and resolves label operands
// against the given label table (label name → instruction index). It
// returns an error for dangling labels or malformed register pairs.
func (k *Kernel) Finalize(labels map[string]int) error {
	max := -1
	note := func(r int) {
		if r != RZ && r > max {
			max = r
		}
	}
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		in.PC = pc
		wide := in.Op.IsFP64Compute() || in.Op == OpDSETP || in.HasMod("64")
		// HMMA with FP32 accumulators uses register pairs for D (operand 0)
		// and C (operand 3); the FP16 A/B fragments stay single registers.
		hmmaFmt, _ := in.HMMADestFormat()
		hmmaWide := in.Op == OpHMMA && hmmaFmt == fpval.FP32
		for oi := range in.Operands {
			op := &in.Operands[oi]
			switch op.Type {
			case OperandReg:
				note(op.Reg)
				if (wide || (hmmaWide && (oi == 0 || oi == 3))) && op.Reg != RZ {
					note(op.Reg + 1)
				}
			case OperandMem:
				note(op.Reg)
			case OperandLabel:
				target, ok := labels[op.Label]
				if !ok {
					return fmt.Errorf("sass: kernel %s pc %d: undefined label %q", k.Name, pc, op.Label)
				}
				*op = Operand{Type: OperandImmInt, IVal: int64(target)}
			}
		}
	}
	k.NumRegs = max + 1
	return nil
}

// FPInstrCount returns the number of floating-point instructions — the
// quantity that drives instrumentation overhead.
func (k *Kernel) FPInstrCount() int {
	n := 0
	for i := range k.Instrs {
		if k.Instrs[i].Op.IsFP() {
			n++
		}
	}
	return n
}
