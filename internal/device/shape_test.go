package device

// The operand shape every opcode has, pinned: what the sass package says of
// its opcode and operands, what it costs, and what launch-time validation
// makes of it at, and one operand below, its minimum operand count.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpufpx/internal/sass"
)

// shapeForms lists one instruction per opcode, and one per modifier form
// that changes an opcode's shape, each with exactly the operands the
// executors index. A form marked pair names a register pair whose high
// register is named nowhere else in the form.
var shapeForms = []struct {
	src  string
	pair bool
}{
	{"FADD R2, R4, R6", false},
	{"FADD32I R2, R4, 0x3fc00000", false},
	{"FMUL R2, R4, R6", false},
	{"FMUL32I R2, R4, 0x3fc00000", false},
	{"FFMA R2, R4, R6, R8", false},
	{"FFMA R2, R4, R6, R2", false},
	{"FFMA32I R2, R4, 0x3fc00000, R8", false},
	{"MUFU.RCP R2, R4", false},
	{"MUFU.RCP64H R3, R5", false},
	{"MUFU.RCP64H R0, R5", false},
	{"DADD R2, R4, R6", true},
	{"DADD R4, R5, R8", true},
	{"DMUL R2, R4, R6", true},
	{"DFMA R2, R4, R6, R8", true},
	{"FSEL R2, R4, R6, P0", false},
	{"FSET.GT.AND R2, R4, R6", false},
	{"FSET.BF.GT.AND R2, R4, R6", false},
	{"FSETP.GT.AND P0, PT, R4, R6", false},
	{"FMNMX R2, R4, R6, PT", false},
	{"DSETP.GT.AND P0, PT, R2, R4", true},
	{"HADD2 R2, R4, R6", false},
	{"HMUL2 R2, R4, R6", false},
	{"HFMA2 R2, R4, R6, R8", false},
	{"HMMA.884.F32.F32 R8, R2, R3, R4", true},
	{"HMMA.884.F16.F16 R8, R2, R3, R4", false},
	{"FCHK P0, R2, R4", false},
	{"FCHK.F64 P0, R2, R4", true},
	{"F2F.F32.F64 R2, R4", true},
	{"F2F.FTZ.F32.F64 R2, R4", true},
	{"F2F.F64.F32 R4, R2", true},
	{"F2F.FTZ.F64.F32 R4, R2", true},
	{"F2F.F16.F32 R2, R4", false},
	{"F2F.FTZ.F16.F32 R2, R4", false},
	{"F2F.F32.F16 R2, R4", false},
	{"F2F.FTZ.F32.F16 R2, R4", false},
	{"I2F R2, R4", false},
	{"I2F.F64 R4, R2", true},
	{"F2I R2, R4", false},
	{"F2I.F64 R2, R4", true},
	{"MOV R2, R4", false},
	{"MOV32I R2, 0x1", false},
	{"IADD R2, R4, R6", false},
	{"IADD3 R2, R4, R6, R8", false},
	{"IMAD R2, R4, R6, R8", false},
	{"ISETP.LT.AND P0, PT, R4, R6", false},
	{"SHL R2, R4, 0x2", false},
	{"SHR R2, R4, 0x2", false},
	{"LOP.AND R2, R4, R6", false},
	{"SEL R2, R4, R6, P0", false},
	{"LDG.E R2, [R4]", false},
	{"LDG.E.64 R4, [R2]", true},
	{"STG.E [R4], R2", false},
	{"STG.E.64 [R2], R4", true},
	{"LDS R2, [R4]", false},
	{"STS [R4], R2", false},
	{"LDC R2, c[0x0][0x0]", false},
	{"SHFL.BFLY R2, R4, 0x10", false},
	{"RED.E.ADD [R4], R2", false},
	{"S2R R2, SR_TID.X", false},
	{"BRA L_end", false},
	{"EXIT", false},
	{"NOP", false},
	{"BAR.SYNC", false},
}

// shapeListing is the kernel of one form: head, the form, and an EXIT
// under the label BRA targets.
func shapeListing(head, form string) string {
	return head + form + " ;\nL_end:\nEXIT ;"
}

// shapeVerdict launches src as a one-warp kernel and names the outcome.
func shapeVerdict(src string) (verdict string) {
	k, err := sass.Parse("shape", src)
	if err != nil {
		return "parse error"
	}
	defer func() {
		if r := recover(); r != nil {
			verdict = fmt.Sprintf("panic: %v", r)
		}
	}()
	_, err = New(DefaultConfig()).Launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32})
	switch {
	case err == nil:
		return "launched"
	case errors.Is(err, ErrUnsupported):
		return "rejected"
	}
	return err.Error()
}

// belowMinimum drops the form's last operand; ok is false for forms with
// none.
func belowMinimum(src string) (string, bool) {
	i := strings.LastIndexByte(src, ',')
	if i < 0 {
		i = strings.IndexByte(src, ' ')
	}
	if i < 0 {
		return "", false
	}
	return src[:i], true
}

func formatName(f interface{ String() string }, ok bool) string {
	if !ok {
		return "-"
	}
	return f.String()
}

func flags(bs ...bool) string {
	var b strings.Builder
	for _, v := range bs {
		if v {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// TestOperandShapesPinned holds every form in shapeForms to the line
// recorded for it in testdata/op_shapes.txt, and checks the forms cover
// every opcode. Each line gives the opcode's String, its IsFP32Compute,
// IsFP64Compute, IsFP16Compute, IsControlFlowFP, IsFP and WritesPredicate
// answers, DestFormat and SrcFormat; the instruction's DestReg, number of
// SrcOperands and SharesDestWithSource; instrCost; and the launch verdicts
// one operand below the minimum, at the minimum (with every register in a
// 32-register file) and, for pair forms, with only the pair's low register
// named.
func TestOperandShapesPinned(t *testing.T) {
	seen := map[sass.Op]bool{}
	var got []string
	for _, f := range shapeForms {
		k, err := sass.Parse("shape", shapeListing("", f.src))
		if err != nil {
			t.Fatalf("%s: %v", f.src, err)
		}
		in := &k.Instrs[0]
		op := in.Op
		seen[op] = true
		dst, dstOK := op.DestFormat()
		src, srcOK := op.SrcFormat()
		dest := "-"
		if d, ok := in.DestReg(); ok {
			dest = fmt.Sprintf("R%d", d)
		}
		below := "-"
		if b, ok := belowMinimum(f.src); ok {
			below = shapeVerdict(shapeListing("", b))
		}
		low := "-"
		if f.pair {
			low = shapeVerdict(shapeListing("", f.src))
		}
		got = append(got, fmt.Sprintf("%s | %s is=%s dst=%s src=%s | dest=%s srcs=%d shares=%s | cost=%d | below=%s min=%s low=%s",
			f.src, op, flags(op.IsFP32Compute(), op.IsFP64Compute(), op.IsFP16Compute(), op.IsControlFlowFP(), op.IsFP(), op.WritesPredicate()),
			formatName(dst, dstOK), formatName(src, srcOK),
			dest, len(in.SrcOperands()), flags(in.SharesDestWithSource()),
			instrCost(in),
			below, shapeVerdict(shapeListing("MOV R31, RZ ;\n", f.src)), low))
	}
	for op := sass.Op(1); op.String() != "<op?>"; op++ {
		if !seen[op] {
			t.Errorf("no form for opcode %v", op)
		}
	}

	want := readGolden(t, filepath.Join("testdata", "op_shapes.txt"))
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	wantSet := map[string]bool{}
	for _, l := range want {
		wantSet[l] = true
	}
	for _, l := range got {
		if !wantSet[l] {
			t.Errorf("not pinned: %s", l)
		}
	}
	t.Fatalf("operand shapes changed (%d lines, %d pinned)", len(got), len(want))
}

func readGolden(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
}
