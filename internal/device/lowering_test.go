package device

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gpufpx/internal/sass"
)

// convShapesSrc runs one conversion form (%[1]s) over four sources — a plain
// register, a -|R| register, a constant-bank word and an immediate
// (%[2]s..%[5]s) — into R8, R10, R12 and R14, so an FP64 result's pair
// fills R8..R15. R4:R5 is an FP64 source pair whose high word is the
// lane's a and low word its b.
const convShapesSrc = shapesHead + `
MOV R4, R6 ;
%[1]s R8, %[2]s ;
%[1]s R10, %[3]s ;
%[1]s R12, %[4]s ;
%[1]s R14, %[5]s ;
` + shapesStores

// convSources are the four sources of convShapesSrc for each source kind:
// an FP64 pair, a 32-bit FP or integer register, and an FP16 in a
// register's low half (whose immediate is an FP16 bit pattern).
var convSources = map[string][4]string{
	"F64": {"R4", "-|R4|", "c[0x0][0x170]", "1.5"},
	"F32": {"R5", "-|R5|", "c[0x0][0x168]", "1.5"},
	"INT": {"R5", "-|R5|", "c[0x0][0x168]", "0x7"},
	"F16": {"R5", "-|R5|", "c[0x0][0x168]", "0x3e00"},
}

// TestConversionShapesAgree runs F2F for every format pair, with and
// without .FTZ, and I2F/F2I in FP32 and .F64 through the shape harness:
// each form over a register, a modified register, a constant-bank word and
// an immediate, so the warp-invariant sources take every tier's broadcast
// path, under full and sparse exec masks.
func TestConversionShapesAgree(t *testing.T) {
	const uniA, uniB = 0x00400201, 0x36a00000 // a subnormal (FP32 and FP16); the FP64 pair's high word
	type form struct{ op, src string }
	var forms []form
	for _, d := range []string{"F16", "F32", "F64", "BF16"} {
		for _, s := range []string{"F16", "F32", "F64", "BF16"} {
			kind := s
			if s == "BF16" {
				kind = "F32" // F2F reads a BF16 source as 32 register bits
			}
			forms = append(forms, form{"F2F." + d + "." + s, kind}, form{"F2F.FTZ." + d + "." + s, kind})
		}
	}
	forms = append(forms, form{"I2F", "INT"}, form{"I2F.F64", "INT"}, form{"F2I", "F32"}, form{"F2I.F64", "F64"})
	for _, f := range forms {
		s := convSources[f.src]
		pairs := mufuPairs
		if f.src == "F16" {
			pairs = fp16Pairs
		}
		k := sass.MustParse("conv_shapes_"+f.op, fmt.Sprintf(convShapesSrc, f.op, s[0], s[1], s[2], s[3]))
		t.Run(f.op, func(t *testing.T) {
			checkShapeTiers(t, k, pairs, uniA, uniB, nil)
		})
	}
}

// deadDestBody writes every lane-local opcode's result to RZ and every
// SETP's and FCHK's to PT, over register and warp-invariant sources alike.
// Register-pair destinations are absent: validation rejects RZ as a pair,
// so DADD, DMUL, DFMA, I2F.F64 and F2F.F64 never take RZ.
var deadDestBody = []string{
	"FADD RZ, R1, R2", "FADD RZ, c[0x0][0x160], 1.5", "FADD32I RZ, R1, 0x3fc00000",
	"FMUL RZ, R1, R2", "FMUL RZ, -R1, c[0x0][0x160]", "FMUL32I RZ, R1, 0x3fc00000",
	"FFMA RZ, R1, R2, R1", "FFMA RZ, c[0x0][0x160], 1.5, 2.5", "FFMA32I RZ, R1, 0x3fc00000, R2",
	"MUFU.RCP RZ, R1", "MUFU.SQRT RZ, c[0x0][0x160]", "MUFU.RCP64H RZ, R5",
	"FSEL RZ, R1, R2, P1", "FSEL RZ, c[0x0][0x160], 1.5, PT",
	"FSET.GT.AND RZ, R1, R2", "FSET.BF.GT.AND RZ, c[0x0][0x160], 1.5",
	"FSETP.GT.AND PT, PT, R1, R2, P1", "FSETP.LT.OR PT, PT, c[0x0][0x160], 1.5, PT",
	"FMNMX RZ, R1, R2, P1", "FMNMX RZ, c[0x0][0x160], 1.5, PT",
	"DSETP.GT.AND PT, PT, R4, c[0x0][0x160], P1",
	"HADD2 RZ, R1, R2", "HMUL2 RZ, c[0x0][0x160], 1.5", "HFMA2 RZ, R1, R2, R1",
	"FCHK PT, R1, R2", "FCHK.F64 PT, R4, c[0x0][0x160]",
	"F2F.F32.F64 RZ, R4", "F2F.F16.F32 RZ, R1", "F2F.F32.F16 RZ, c[0x0][0x160]",
	"I2F RZ, R0", "I2F RZ, c[0x0][0x160]", "F2I RZ, R1", "F2I.F64 RZ, R4", "F2I.F64 RZ, c[0x0][0x160]",
	"MOV RZ, R1", "MOV RZ, c[0x0][0x160]", "MOV32I RZ, 0x1",
	"IADD RZ, R0, R3", "IADD3 RZ, R0, R3, 0x1", "IMAD RZ, R0, 0x4, c[0x0][0x160]",
	"ISETP.NE.AND PT, PT, R0, R3, P1", "ISETP.LT.XOR PT, PT, c[0x0][0x160], 0x1, PT",
	"SHL RZ, R0, 0x2", "SHR RZ, R0, 0x2",
	"LOP.AND RZ, R0, R3", "LOP.OR RZ, R0, 0x1", "LOP.XOR RZ, c[0x0][0x160], 0x1",
	"SEL RZ, R0, R3, P1", "SEL RZ, c[0x0][0x160], 0x1, PT",
	"LDC RZ, c[0x0][0x160]",
	"S2R RZ, SR_TID.X", "S2R RZ, SR_LANEID", "S2R RZ, SR_CTAID.X", "S2R RZ, SR_NTID.X", "S2R RZ, SR_NCTAID.X",
}

// deadDestKernel runs deadDestBody unguarded, inside one fused region
// body, then under @P0 (odd lanes), stepped; each lane stores its R1 and
// R0 last.
var deadDestKernel = func() *sass.Kernel {
	var b strings.Builder
	b.WriteString(`S2R R0, SR_TID.X ;
I2F R1, R0 ;
MOV32I R2, 0x3fc00000 ;
LOP.AND R3, R0, 0x1 ;
ISETP.NE.AND P0, PT, R3, RZ, PT ;
FSETP.GT.AND P1, P2, R1, 8.5, PT ;
MOV R4, R1 ;
MOV R5, R0 ;
SHL R6, R0, 0x3 ;
IADD R6, R6, c[0x0][0x164] ;
`)
	for _, guard := range []string{"", "@P0 "} {
		for _, f := range deadDestBody {
			b.WriteString(guard + f + " ;\n")
		}
	}
	b.WriteString("STG.E [R6], R1 ;\nSTG.E [R6+0x4], R0 ;\nEXIT ;\n")
	return sass.MustParse("dead_dests", b.String())
}()

// deadDestRun is what one launch of deadDestKernel leaves observable:
// cycles, statistics, every lane's registers and the predicate masks at
// EXIT, and the stored words.
type deadDestRun struct {
	cycles, instrs uint64
	regs           []uint32
	preds          [7]uint32
	mem            [64]uint32
}

// TestDeadDestinationsAgree runs every lane-local opcode with an RZ
// destination and every SETP/FCHK with PT destinations, in a fused region
// body and stepped under a guard, and requires every tier to leave the
// interpreter's registers, predicates, memory and cycles.
func TestDeadDestinationsAgree(t *testing.T) {
	k := deadDestKernel
	prog := programFor(k)
	if prog.meta.verr != nil {
		t.Fatal(prog.meta.verr)
	}
	first, exit := 10, len(k.Instrs)-1
	for pc := first; pc < first+len(deadDestBody); pc++ {
		if prog.fk.regionOf[pc] < 0 {
			t.Fatalf("pc %d (%s) is outside every fused region body", pc, k.Instrs[pc].String())
		}
	}
	var ref *deadDestRun
	for _, mode := range allTiers {
		d := New(DefaultConfig())
		out := d.Alloc(4 * 64)
		got := &deadDestRun{}
		tab := NewInjectTable(len(k.Instrs))
		tab.Add(exit, InjectedCall{When: Before, Fn: func(ctx *InjCtx) error {
			for l := 0; l < WarpSize; l++ {
				for r := 0; r < k.NumRegs; r++ {
					got.regs = append(got.regs, ctx.Warp.Reg(l, r))
				}
			}
			copy(got.preds[:], ctx.Warp.pmask[:7])
			return nil
		}})
		st, err := d.launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32,
			Params: []uint32{0x3fc00000, out}, InjectTab: tab}, mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		got.cycles, got.instrs = st.Cycles, d.Stats.Instructions
		for i := range got.mem {
			got.mem[i] = d.Load32(out + uint32(4*i))
		}
		if ref == nil {
			ref = got
			continue
		}
		if got.cycles != ref.cycles || got.instrs != ref.instrs {
			t.Errorf("%s: %d cycles, %d instructions; interp %d, %d", mode, got.cycles, got.instrs, ref.cycles, ref.instrs)
		}
		if !reflect.DeepEqual(got.regs, ref.regs) {
			t.Errorf("%s: registers at EXIT differ from interp", mode)
		}
		if got.preds != ref.preds {
			t.Errorf("%s: predicates %#x, interp %#x", mode, got.preds, ref.preds)
		}
		if got.mem != ref.mem {
			t.Errorf("%s: stores differ from interp", mode)
		}
	}
	if len(ref.regs) != WarpSize*k.NumRegs {
		t.Fatalf("EXIT call ran %d register reads, want one warp's", len(ref.regs))
	}
}
