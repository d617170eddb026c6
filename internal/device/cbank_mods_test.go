package device

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gpufpx/internal/sass"
)

// cbankModBody is one instruction per modified constant-bank operand form:
// -c[..] and -|c[..]| on FP sources, .FTZ on a subnormal c-bank word (each
// case picked so that an unflushed input changes the result), and -c[..]
// on IADD/IADD3/IMAD (two's-complement negation) and MOV/SEL (a sign-bit
// flip, like any raw-bits source). %[1]s is the guard, %[2]d the result
// register, and %[3]d the predicate FSETP writes and SEL reads.
// c[0x164] holds -2.5, c[0x168] the negative subnormal -2^-127 and c[0x16c]
// the integer 7; R3 is the min normal and R4 2^100.
var cbankModBody = []string{
	"%[1]sFADD R%[2]d, R6, -c[0x0][0x164] ;",
	"%[1]sFMUL R%[2]d, R6, -|c[0x0][0x164]| ;",
	"%[1]sFFMA R%[2]d, -c[0x0][0x164], R6, -|c[0x0][0x164]| ;",
	"%[1]sFADD.FTZ R%[2]d, -c[0x0][0x168], R3 ;",
	"%[1]sFFMA.FTZ R%[2]d, -c[0x0][0x168], R4, R3 ;",
	"%[1]sFMUL.FTZ R%[2]d, -|c[0x0][0x168]|, R4 ;",
	"%[1]sFSETP.GT.FTZ.AND P%[3]d, PT, -c[0x0][0x168], RZ, PT ;",
	"%[1]sSEL R%[2]d, R0, -c[0x0][0x16c], P%[3]d ;",
	"%[1]sIADD R%[2]d, R0, -c[0x0][0x16c] ;",
	"%[1]sIADD3 R%[2]d, -c[0x0][0x16c], R0, -c[0x0][0x16c] ;",
	"%[1]sIMAD R%[2]d, R0, -c[0x0][0x16c], R0 ;",
	"%[1]sMOV R%[2]d, -c[0x0][0x16c] ;",
	"%[1]sSEL R%[2]d, -c[0x0][0x16c], R0, P0 ;",
}

// cbankModKernel runs cbankModBody twice: unguarded, inside one fused
// region body, then under @P0 (odd lanes), where no region covers it and every
// site is stepped. Each lane stores both result sets.
var cbankModKernel = func() *sass.Kernel {
	var b strings.Builder
	b.WriteString(`S2R R0, SR_TID.X ;
SHL R1, R0, 0x7 ;
IADD R20, R1, c[0x0][0x160] ;
I2F R6, R0 ;
MOV32I R3, 0x800000 ;
MOV32I R4, 0x71800000 ;
LOP.AND R7, R0, 0x1 ;
ISETP.NE.AND P0, PT, R7, RZ, PT ;
`)
	body := func(guard string, base, pred int) {
		dst := base
		for _, f := range cbankModBody {
			fmt.Fprintf(&b, f+"\n", guard, dst, pred)
			if !strings.Contains(f, "FSETP") {
				dst++
			}
		}
	}
	body("", 8, 1)
	body("@P0 ", 24, 2)
	for i := 0; i < 2*cbankModResults; i++ {
		reg := 8 + i
		if i >= cbankModResults {
			reg = 24 + i - cbankModResults
		}
		fmt.Fprintf(&b, "STG.E [R20+0x%x], R%d ;\n", 4*i, reg)
	}
	b.WriteString("EXIT ;\n")
	return sass.MustParse("cbank_mods", b.String())
}()

// cbankModResults is the number of result registers per body (every body
// line but FSETP writes one).
const cbankModResults = 12

// TestCBankModifiersAgree runs every modified constant-bank operand form
// inside a fused region body and under a guard outside any region, on every tier,
// and requires the interpreter's bits and cycles from each. Spot values pin
// the interpreter itself.
func TestCBankModifiersAgree(t *testing.T) {
	k := cbankModKernel
	prog := programFor(k)
	inChain, stepped := 0, 0
	covered := make([]bool, len(k.Instrs))
	for _, r := range prog.fk.regions {
		for pc := r.start; pc < r.end; pc++ {
			covered[pc] = true
			if in := &k.Instrs[pc]; len(r.fns) > 1 && !discardsAll(in) && negCBank(in) {
				inChain++
			}
		}
	}
	for pc := range k.Instrs {
		if !covered[pc] && negCBank(&k.Instrs[pc]) && !prog.meta.guardPT[pc] {
			stepped++
		}
	}
	if n := len(cbankModBody); inChain != n || stepped != n {
		t.Fatalf("%d sites in fused region bodies and %d stepped under a guard, want %d each", inChain, stepped, n)
	}

	const fpA, fpSub, intK = 0xc0200000, 0x80400000, 7 // -2.5, -2^-127, 7
	var ref []uint32
	var refCycles uint64
	for _, mode := range allTiers {
		d := New(DefaultConfig())
		out := d.Alloc(32 * 128)
		st, err := d.launch(&Launch{Kernel: k, GridDim: 1, BlockDim: 32,
			Params: []uint32{out, fpA, fpSub, intK}}, mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		got := make([]uint32, 32*2*cbankModResults)
		for l := 0; l < 32; l++ {
			for i := 0; i < 2*cbankModResults; i++ {
				got[l*2*cbankModResults+i] = d.Load32(out + uint32(128*l+4*i))
			}
		}
		if mode == tierInterp {
			ref, refCycles = got, st.Cycles
			continue
		}
		if st.Cycles != refCycles {
			t.Errorf("%s: %d cycles, interp %d", mode, st.Cycles, refCycles)
		}
		for i := range got {
			if got[i] != ref[i] {
				l, r := i/(2*cbankModResults), i%(2*cbankModResults)
				part := "fused"
				if r >= cbankModResults {
					part, r = "guarded", r-cbankModResults
				}
				t.Errorf("%s: lane %d %s result %d = %#08x, interp %#08x", mode, l, part, r, got[i], ref[i])
			}
		}
	}

	f32 := math.Float32bits
	for l := 0; l < 32; l++ {
		fl := float32(l)
		sel := uint32(l)
		if l&1 != 0 {
			sel = 0x80000007
		}
		want := []uint32{
			f32(fl + 2.5),
			f32(-2.5 * fl),
			f32(2.5*fl - 2.5),
			0x00800000, // the flushed input adds nothing to the min normal
			0x00800000, // 0 × 2^100 + min normal
			0x80000000, // -0 × 2^100
			0x80000007, // the flushed compare is false: SEL takes -c[..]
			uint32(l - 7),
			uint32(l - 14),
			uint32(-6 * l),
			0x80000007, // MOV flips the sign bit
			sel,
		}
		for part := 0; part < 2; part++ {
			if part == 1 && l&1 == 0 {
				continue // guarded off: the results stay zero
			}
			for i, w := range want {
				if g := ref[l*2*cbankModResults+part*cbankModResults+i]; g != w {
					t.Errorf("interp lane %d part %d result %d = %#08x, want %#08x", l, part, i, g, w)
				}
			}
		}
	}
}

// negCBank reports an instruction with a negated constant-bank operand.
func negCBank(in *sass.Instr) bool {
	for i := range in.Operands {
		if op := &in.Operands[i]; op.Type == sass.OperandCBank && op.Neg {
			return true
		}
	}
	return false
}
