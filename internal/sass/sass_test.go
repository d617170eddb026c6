package sass

import (
	"math"
	"strings"
	"testing"

	"gpufpx/internal/fpval"
)

func TestOpClassification(t *testing.T) {
	fp32 := []Op{OpFADD, OpFADD32I, OpFMUL, OpFMUL32I, OpFFMA, OpFFMA32I, OpMUFU}
	for _, op := range fp32 {
		if !op.IsFP32Compute() {
			t.Errorf("%v should be FP32 compute", op)
		}
		if op.IsFP64Compute() || op.IsControlFlowFP() {
			t.Errorf("%v misclassified", op)
		}
	}
	fp64 := []Op{OpDADD, OpDMUL, OpDFMA}
	for _, op := range fp64 {
		if !op.IsFP64Compute() || op.IsFP32Compute() {
			t.Errorf("%v misclassified", op)
		}
	}
	// Table 1 right column: the control-flow opcodes BinFPE misses.
	cf := []Op{OpFSEL, OpFSET, OpFSETP, OpFMNMX, OpDSETP}
	for _, op := range cf {
		if !op.IsControlFlowFP() {
			t.Errorf("%v should be control-flow FP", op)
		}
	}
	for _, op := range []Op{OpIADD, OpMOV, OpLDG, OpBRA, OpEXIT} {
		if op.IsFP() {
			t.Errorf("%v should not be FP", op)
		}
	}
}

func TestDestFormat(t *testing.T) {
	if f, ok := OpFADD.DestFormat(); !ok || f != fpval.FP32 {
		t.Error("FADD dest format")
	}
	if f, ok := OpDFMA.DestFormat(); !ok || f != fpval.FP64 {
		t.Error("DFMA dest format")
	}
	if f, ok := OpHADD2.DestFormat(); !ok || f != fpval.FP16 {
		t.Error("HADD2 dest format")
	}
	// FSEL and FMNMX write FP32 registers even though they are
	// control-flow opcodes.
	if f, ok := OpFSEL.DestFormat(); !ok || f != fpval.FP32 {
		t.Error("FSEL dest format")
	}
	// Predicate writers have no FP destination — the reason BinFPE's
	// destination-only checking misses them.
	for _, op := range []Op{OpFSETP, OpDSETP, OpFSET} {
		if _, ok := op.DestFormat(); ok && op != OpFSET {
			t.Errorf("%v should have no FP dest", op)
		}
	}
	if !OpFSETP.WritesPredicate() || !OpDSETP.WritesPredicate() || OpFADD.WritesPredicate() {
		t.Error("WritesPredicate misclassification")
	}
}

func TestSrcFormat(t *testing.T) {
	if f, ok := OpFSETP.SrcFormat(); !ok || f != fpval.FP32 {
		t.Error("FSETP src format should be FP32")
	}
	if f, ok := OpDSETP.SrcFormat(); !ok || f != fpval.FP64 {
		t.Error("DSETP src format should be FP64")
	}
	if _, ok := OpIADD.SrcFormat(); ok {
		t.Error("IADD has no FP sources")
	}
	// An opcode without a format reports the zero format; the analyzer
	// and the shadow tool read it unchecked.
	for op := Op(0); op < opMax; op++ {
		if f, ok := op.SrcFormat(); !ok && f != 0 {
			t.Errorf("%v: SrcFormat = %v without a source format", op, f)
		}
		if f, ok := op.DestFormat(); !ok && f != 0 {
			t.Errorf("%v: DestFormat = %v without a destination format", op, f)
		}
	}
}

func TestConvFormats(t *testing.T) {
	cases := []struct {
		asm      string
		dst, src fpval.Format
		ok       bool
	}{
		{"F2F.F32.F64 R2, R4 ;", fpval.FP32, fpval.FP64, true},
		{"F2F.F64.F32 R2, R4 ;", fpval.FP64, fpval.FP32, true},
		{"F2F.FTZ.F32.F64 R2, R4 ;", fpval.FP32, fpval.FP64, true},
		{"F2F.F16.FTZ.F32 R2, R4 ;", fpval.FP16, fpval.FP32, true},
		{"F2F.FTZ.F32 R2, R4 ;", 0, 0, false},
		{"F2F R2, R4 ;", 0, 0, false},
	}
	for _, c := range cases {
		in := MustParse("k", c.asm+"\nEXIT ;").Instrs[0]
		dst, src, ok := in.ConvFormats()
		if ok != c.ok || dst != c.dst || src != c.src {
			t.Errorf("%s: formats = %v, %v ok = %v, want %v, %v %v", c.asm, dst, src, ok, c.dst, c.src, c.ok)
		}
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for op := Op(1); op < opMax; op++ {
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if _, ok := OpByName("FROB"); ok {
		t.Error("OpByName should reject unknown mnemonics")
	}
}

func TestInstrOpcodeText(t *testing.T) {
	in := NewInstr(OpMUFU, Reg(4), Reg(5)).WithMods("RCP64H")
	if got := in.OpcodeText(); got != "MUFU.RCP64H" {
		t.Errorf("OpcodeText = %q", got)
	}
	if !in.IsRcp() || !in.Is64H() {
		t.Error("MUFU.RCP64H should be Rcp and 64H")
	}
	in2 := NewInstr(OpMUFU, Reg(4), Reg(5)).WithMods("RSQ")
	if in2.IsRcp() || in2.Is64H() {
		t.Error("MUFU.RSQ should be neither Rcp nor 64H")
	}
}

func TestSharedDestSource(t *testing.T) {
	// The paper's example: FADD R6, R1, R6.
	in := NewInstr(OpFADD, Reg(6), Reg(1), Reg(6))
	if !in.SharesDestWithSource() {
		t.Error("FADD R6, R1, R6 shares dest with source")
	}
	in2 := NewInstr(OpFADD, Reg(6), Reg(1), Reg(2))
	if in2.SharesDestWithSource() {
		t.Error("FADD R6, R1, R2 does not share")
	}
	// FP64 pair overlap: DADD R8, R8, R22 shares; DADD R8, R9, ... shares
	// through the high half of the pair.
	in3 := NewInstr(OpDADD, Reg(8), Reg(8), Reg(22))
	if !in3.SharesDestWithSource() {
		t.Error("DADD R8, R8, R22 shares")
	}
	in4 := NewInstr(OpDADD, Reg(8), Reg(10), Reg(9))
	if !in4.SharesDestWithSource() {
		t.Error("DADD R8 dest pair (R8,R9) overlaps source pair starting R9")
	}
	// RZ never counts as shared.
	in5 := NewInstr(OpFADD, Reg(RZ), Reg(RZ), Reg(RZ))
	if in5.SharesDestWithSource() {
		t.Error("RZ is not a real register; no sharing")
	}
	// Conversions overlap through whichever side is a pair.
	for _, tc := range []struct {
		src   string
		share bool
	}{
		{"F2F.F64.F32 R2, R3 ;", true},  // dest pair (R2,R3) holds the source
		{"F2F.F32.F64 R3, R2 ;", true},  // source pair (R2,R3) holds the dest
		{"F2F.F32.F64 R4, R2 ;", false}, // source pair (R2,R3)
		{"F2F.F32.F16 R3, R2 ;", false}, // no pairs
		{"I2F.F64 R4, R5 ;", true},      // dest pair (R4,R5)
	} {
		in := MustParse("share", tc.src).Instrs[0]
		if got := in.SharesDestWithSource(); got != tc.share {
			t.Errorf("%s: SharesDestWithSource = %v, want %v", tc.src, got, tc.share)
		}
	}
}

func TestPairMask(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want uint8
	}{
		{"DADD R2, R4, R6 ;", 0b111},
		{"DFMA R2, R4, R6, R8 ;", 0b1111},
		{"DSETP.GT.AND P0, PT, R2, R4, PT ;", 0b1100},
		{"LDG.E.64 R4, [R2] ;", 0b1},
		{"LDG.E R4, [R2] ;", 0},
		{"STG.E.64 [R2], R4 ;", 0b10},
		{"FCHK.F64 P0, R2, R4 ;", 0b110},
		{"FCHK P0, R2, R4 ;", 0},
		{"I2F.F64 R4, R2 ;", 0b1},
		{"F2I.F64 R2, R4 ;", 0b10},
		{"F2F.F64.F32 R4, R2 ;", 0b1},
		{"F2F.FTZ.F32.F64 R2, R4 ;", 0b10},
		{"F2F.F16.F32 R2, R4 ;", 0},
		{"HMMA.884.F32.F32 R8, R4, R5, R6 ;", 0b1001},
		{"HMMA.884.F16.F16 R8, R4, R5, R6 ;", 0},
		{"MUFU.RCP64H R3, R5 ;", 0},
		{"FADD R2, R4, R6 ;", 0},
	} {
		in := MustParse("pairs", tc.src).Instrs[0]
		if got := in.PairMask(); got != tc.want {
			t.Errorf("%s: PairMask = %#b, want %#b", tc.src, got, tc.want)
		}
	}
}

func TestDestRegAndSources(t *testing.T) {
	in := NewInstr(OpFFMA, Reg(1), Reg(88), Reg(104), Reg(1))
	d, ok := in.DestReg()
	if !ok || d != 1 {
		t.Fatalf("DestReg = %d, %v", d, ok)
	}
	if n := len(in.SrcOperands()); n != 3 {
		t.Fatalf("FFMA has %d sources, want 3", n)
	}
	// Stores: no dest, everything is a source.
	st := NewInstr(OpSTG, Mem(4, 0), Reg(2)).WithMods("E")
	if _, ok := st.DestReg(); ok {
		t.Error("STG has no destination register")
	}
	if n := len(st.SrcOperands()); n != 2 {
		t.Errorf("STG has %d sources, want 2", n)
	}
	// FSETP: two predicate destinations, then sources.
	fs := NewInstr(OpFSETP, PredOp(0, false), PredOp(PT, false), Reg(3), CBank(0, 0x160), PredOp(PT, false)).WithMods("LT", "AND")
	if _, ok := fs.DestReg(); ok {
		t.Error("FSETP has no GP destination register")
	}
	if n := len(fs.SrcOperands()); n != 3 {
		t.Errorf("FSETP has %d sources, want 3", n)
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{NewInstr(OpFADD, Reg(6), Reg(1), Reg(6)), "FADD R6, R1, R6 ;"},
		{NewInstr(OpMUFU, Reg(4), Reg(5)).WithMods("RCP"), "MUFU.RCP R4, R5 ;"},
		{NewInstr(OpFSEL, Reg(2), Reg(5), Reg(2), PredOp(6, true)), "FSEL R2, R5, R2, !P6 ;"},
		{NewInstr(OpFADD, Reg(RZ), Reg(RZ), ImmF(math.Inf(1))), "FADD RZ, RZ, +INF ;"},
		{NewInstr(OpMUFU, Reg(RZ), Generic("-QNAN")).WithMods("RSQ"), "MUFU.RSQ RZ, -QNAN ;"},
		{NewInstr(OpLDG, Reg(2), Mem(4, 16)).WithMods("E"), "LDG.E R2, [R4+0x10] ;"},
		{NewInstr(OpFADD, Reg(3), Reg(3), ImmF(1)).WithGuard(0, true), "@!P0 FADD R3, R3, 1.0 ;"},
		{NewInstr(OpFSETP, PredOp(0, false), PredOp(PT, false), Reg(3), CBank(0, 0x160), PredOp(PT, false)).WithMods("LT", "AND"),
			"FSETP.LT.AND P0, PT, R3, c[0x0][0x160], PT ;"},
		{NewInstr(OpEXIT), "EXIT ;"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `
// a small loop
MOV32I R0, 0x0 ;
S2R R1, SR_TID.X ;
L_top:
FADD R2, R2, 1.5 ;
MUFU.RCP R3, R2 ;
IADD R0, R0, 0x1 ;
ISETP.LT.AND P0, PT, R0, 0x10, PT ;
@P0 BRA L_top ;
STG.E [R4], R2 ;
EXIT ;
`
	k, err := Parse("loop_kernel", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Instrs) != 9 {
		t.Fatalf("got %d instrs, want 9", len(k.Instrs))
	}
	// Branch resolved to instruction index 2 (L_top).
	bra := k.Instrs[6]
	if bra.Op != OpBRA || bra.Operands[0].Type != OperandImmInt || bra.Operands[0].IVal != 2 {
		t.Fatalf("branch did not resolve: %+v", bra)
	}
	if bra.Guard != 0 || bra.GuardNeg {
		t.Fatalf("branch guard wrong: %+v", bra)
	}
	// Reformat and reparse: same instruction count and same text.
	text := Format(k)
	k2, err := Parse("loop_kernel", text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if len(k2.Instrs) != len(k.Instrs) {
		t.Fatalf("round trip changed instruction count: %d vs %d", len(k2.Instrs), len(k.Instrs))
	}
	for i := range k.Instrs {
		if k.Instrs[i].String() != k2.Instrs[i].String() {
			t.Errorf("instr %d: %q vs %q", i, k.Instrs[i].String(), k2.Instrs[i].String())
		}
	}
}

func TestParseOperandKinds(t *testing.T) {
	src := `
FADD RZ, RZ, +INF ;
MUFU.RSQ RZ, -QNAN ;
FFMA R1, R88, R104, R1 ;
FMUL R2, -R3, |R4| ;
DADD R8, R8, R22 ;
FADD R5, R5, c[0x0][0x160] ;
MOV32I R7, 0x7fc00000 ;
`
	k, err := Parse("kinds", src)
	if err != nil {
		t.Fatal(err)
	}
	// FADD +INF is an IMM_DOUBLE with value +Inf (Listing 2 example).
	imm := k.Instrs[0].Operands[2]
	if imm.Type != OperandImmDouble || !math.IsInf(imm.Imm, 1) {
		t.Errorf("FADD +INF parsed as %+v", imm)
	}
	// MUFU.RSQ -QNAN is a GENERIC with NaN text (Listing 2 example).
	gen := k.Instrs[1].Operands[1]
	if gen.Type != OperandGeneric || !strings.Contains(gen.Text, "QNAN") {
		t.Errorf("MUFU -QNAN parsed as %+v", gen)
	}
	neg := k.Instrs[3].Operands[1]
	if neg.Type != OperandReg || !neg.Neg || neg.Reg != 3 {
		t.Errorf("-R3 parsed as %+v", neg)
	}
	abs := k.Instrs[3].Operands[2]
	if abs.Type != OperandReg || !abs.Abs || abs.Reg != 4 {
		t.Errorf("|R4| parsed as %+v", abs)
	}
	cb := k.Instrs[5].Operands[2]
	if cb.Type != OperandCBank || cb.Bank != 0 || cb.Off != 0x160 {
		t.Errorf("cbank parsed as %+v", cb)
	}
	mi := k.Instrs[6].Operands[1]
	if mi.Type != OperandImmInt || mi.IVal != 0x7fc00000 {
		t.Errorf("MOV32I imm parsed as %+v", mi)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"FROB R1, R2 ;",
		"FADD R1, R999 ;",
		"BRA L_nowhere ;",
		"@P9 FADD R1, R1, R1 ;",
		"FADD R1, c[zz][0x0] ;",
	}
	for _, src := range bad {
		if _, err := Parse("bad", src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestFinalizeNumRegs(t *testing.T) {
	k := &Kernel{Name: "t", Instrs: []Instr{
		NewInstr(OpFADD, Reg(6), Reg(1), Reg(2)),
		NewInstr(OpDADD, Reg(8), Reg(10), Reg(12)), // pairs reach R13
		NewInstr(OpFADD, Reg(RZ), Reg(RZ), Reg(RZ)),
	}}
	if err := k.Finalize(nil); err != nil {
		t.Fatal(err)
	}
	if k.NumRegs != 14 {
		t.Errorf("NumRegs = %d, want 14 (DADD high pair)", k.NumRegs)
	}
	for i, in := range k.Instrs {
		if in.PC != i {
			t.Errorf("PC %d not assigned", i)
		}
	}
}

func TestFPInstrCount(t *testing.T) {
	k := MustParse("c", `
FADD R1, R1, R2 ;
IADD R3, R3, 0x1 ;
DSETP.LT.AND P0, PT, R4, R6, PT ;
EXIT ;
`)
	if got := k.FPInstrCount(); got != 2 {
		t.Errorf("FPInstrCount = %d, want 2", got)
	}
}

func TestSourceLoc(t *testing.T) {
	var unknown SourceLoc
	if unknown.String() != "/unknown_path" {
		t.Errorf("unknown loc = %q", unknown.String())
	}
	known := SourceLoc{File: "kernel_ecc_3.cu", Line: 776}
	if known.String() != "kernel_ecc_3.cu:776" {
		t.Errorf("known loc = %q", known.String())
	}
	k := MustParse("loc", `
.loc als.cu 213
FADD R1, R1, R2 ;
FMUL R2, R2, R3 ;
`)
	if k.Instrs[0].Loc.File != "als.cu" || k.Instrs[0].Loc.Line != 213 {
		t.Errorf("loc not applied: %+v", k.Instrs[0].Loc)
	}
	if k.SourceFile != "als.cu" {
		t.Errorf("SourceFile = %q", k.SourceFile)
	}
}

func TestParseLabelOnInstructionLine(t *testing.T) {
	k, err := Parse("lbl", `
L0: FADD R1, R1, R1 ;
BRA L0 ;
`)
	if err != nil {
		t.Fatal(err)
	}
	if k.Instrs[1].Operands[0].IVal != 0 {
		t.Errorf("label on instruction line not resolved: %+v", k.Instrs[1])
	}
}
