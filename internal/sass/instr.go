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

	// Guard is the guard predicate register (@P0 ...); GuardNeg marks
	// @!P0. A nil guard (Pred == PT, NegPred == false) always executes.
	Guard    int
	GuardNeg bool

	Op Op
	// Mods are the dot modifiers in order, e.g. ["RCP"] for MUFU.RCP,
	// ["LT", "AND"] for FSETP.LT.AND, ["FTZ"] for FADD.FTZ,
	// ["E", "64"] for LDG.E.64.
	Mods []string

	// Operands are the instruction's operands. In a finalized kernel they
	// are cut, without spare capacity, from one array the kernel's
	// instructions share (see Finalize).
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

// PairMask returns the operand positions that name a register pair
// (Rn, Rn+1): bit n is set when operand n does. It mirrors exactly where
// the executors read Reg+1, so Finalize sizes NumRegs by it and launch
// validation checks it.
func (i *Instr) PairMask() uint8 {
	switch i.Op {
	case OpF2F:
		var m uint8
		if dst, src, ok := i.ConvFormats(); ok {
			if dst == fpval.FP64 {
				m |= 1 << 0
			}
			if src == fpval.FP64 {
				m |= 1 << 1
			}
		}
		return m
	case OpHMMA:
		// FP32 accumulators are pairs: D (operand 0) and C (operand 3); the
		// FP16 A/B fragments stay single registers.
		if f, ok := i.HMMADestFormat(); ok && f == fpval.FP32 {
			return 1<<0 | 1<<3
		}
		return 0
	}
	r := i.Op.info()
	if r.pairMod != "" && !i.HasMod(r.pairMod) {
		return 0
	}
	return r.pairs
}

// DestReg returns the destination general-purpose register number, if the
// instruction writes one. Predicate-writing and store instructions report
// false.
func (i *Instr) DestReg() (int, bool) {
	if len(i.Operands) == 0 || i.Op.Dest() != DestRegister || i.Operands[0].Type != OperandReg {
		return 0, false
	}
	return i.Operands[0].Reg, true
}

// SrcOperands returns the source operands: everything after the
// destination operand(s). Stores and reductions have no destination, so
// address and data are both sources; predicate-writing compares skip their
// two leading predicate destinations, FCHK its one.
func (i *Instr) SrcOperands() []Operand {
	n := 1
	switch i.Op.Dest() {
	case DestControl:
		return nil
	case DestNone:
		n = 0
	case DestPredicates:
		n = 2
	}
	if len(i.Operands) > n {
		return i.Operands[n:]
	}
	return nil
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
	pairs := i.PairMask()
	width := func(pos int) int { return 1 + int(pairs>>pos&1) }
	dw := width(0)
	srcs := i.SrcOperands()
	n := len(i.Operands) - len(srcs) // position of srcs[0]
	for si, s := range srcs {
		if s.Type != OperandReg && s.Type != OperandMem {
			continue
		}
		// The destination (d, …, d+dw-1) and the source (s, …, s+sw-1)
		// overlap.
		if s.Reg < d+dw && d < s.Reg+width(n+si) {
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
	// Instrs is the instruction sequence; Instr.PC indexes into it. In a
	// finalized kernel it has no spare capacity.
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

// Finalize assigns PCs, computes NumRegs (counting the high register of
// every pair PairMask names), and resolves label operands against the
// given label table (label name → instruction index). It returns an error
// for dangling labels.
//
// Finalize also compacts the kernel, since a compiled kernel stays cached
// for the life of the process: Instrs moves to an exact-size array, and
// every instruction's operands move into one array for the whole kernel,
// each instruction's cut with a full slice expression so that an append to
// one instruction's operands cannot write into the next's.
func (k *Kernel) Finalize(labels map[string]int) error {
	k.compact()
	max := -1
	note := func(r int) {
		if r != RZ && r > max {
			max = r
		}
	}
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		in.PC = pc
		pairs := in.PairMask()
		for oi := range in.Operands {
			op := &in.Operands[oi]
			switch op.Type {
			case OperandReg:
				note(op.Reg)
				if pairs>>oi&1 != 0 && op.Reg != RZ {
					note(op.Reg + 1)
				}
			case OperandMem:
				note(op.Reg)
			case OperandLabel:
				target, ok := labels[op.Text]
				if !ok {
					return fmt.Errorf("sass: kernel %s pc %d: undefined label %q", k.Name, pc, op.Text)
				}
				*op = Operand{Type: OperandImmInt, IVal: int64(target)}
			}
		}
	}
	k.NumRegs = max + 1
	return nil
}

// compact moves the instructions into an exact-size array and their
// operands into one array per kernel. The arrays they leave behind become
// garbage, so callers may build instructions and operands in whatever
// scratch storage suits them.
func (k *Kernel) compact() {
	if len(k.Instrs) != cap(k.Instrs) {
		k.Instrs = append(make([]Instr, 0, len(k.Instrs)), k.Instrs...)
	}
	n := 0
	for i := range k.Instrs {
		n += len(k.Instrs[i].Operands)
	}
	ops := make([]Operand, 0, n)
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if len(in.Operands) == 0 {
			in.Operands = nil
			continue
		}
		start := len(ops)
		ops = append(ops, in.Operands...)
		in.Operands = ops[start:len(ops):len(ops)]
	}
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
