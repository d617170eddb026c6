package device

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gpufpx/internal/sass"
)

// The SETP differential: every compare modifier of FSETP, DSETP and ISETP,
// under every combiner, with and without a second destination, and with the
// combiner input PT, a negated register or the destination register itself,
// runs on every tier. Each SETP runs three times per variant: unguarded
// inside a fused region body, under a divergent @!P1 guard (stepped), and as the
// body of a fused @P3 (or, every other variant, @!P3) BRA tail whose
// divergence leaves every later variant running under a partial exec
// mask. After each, every lane packs P0..P6 into a word and stores it; the
// branch skips an instruction that sets the variant's bit in a last word,
// which records each lane's branch outcomes. The interpreter's words must
// equal a scalar
// model that compares with Go's own operators and spells out the NaN rules;
// the lowered and fused tiers must equal the interpreter's.

var (
	setpFloatMods = []string{"LT", "LE", "GT", "GE", "EQ", "NE", "LTU", "LEU", "GTU", "GEU", "EQU", "NEU"}
	setpIntMods   = []string{"LT", "LE", "GT", "GE", "EQ", "NE"}
	setpCombs     = []string{"AND", "OR", "XOR"}
	setpPQs       = []string{"P4", "PT"}
	setpPSs       = []string{"PT", "!P5", "P3"}
)

// setpContexts is the number of dumps per variant (unguarded, guarded,
// branch tail); one more dump at the end holds the branch outcomes.
const setpContexts = 3

// setpVariants is the number of comb × pq × ps variants in one kernel.
var setpVariants = len(setpCombs) * len(setpPQs) * len(setpPSs)

// setpOperands are the per-lane operand values, as float64 for the float
// compares and as int32 bits for ISETP: NaNs of both signs, ±0, ±INF and
// the int32 extremes. Lanes take every ordered pair.
var (
	setpFloats = []float64{math.NaN(), math.Inf(-1), -1.5, math.Copysign(0, -1), 0, 1.5, math.Inf(1), -math.NaN()}
	setpInts   = []int32{math.MinInt32, math.MinInt32 + 1, -5, -1, 0, 1, 5, math.MaxInt32}
)

// setpKernel builds the differential kernel for one opcode and modifier.
// Per thread, the operand record at c[0x160] holds a at +0, b at +8 and
// the predicate seed at +0x10; dumps go to c[0x164] + 4·dumps·gid.
func setpKernel(opc, mod string) *sass.Kernel {
	dumps := setpVariants*setpContexts + 1
	var b strings.Builder
	load := "LDG.E"
	if opc == "DSETP" {
		load = "LDG.E.64"
	}
	fmt.Fprintf(&b, `S2R R0, SR_TID.X ;
S2R R1, SR_CTAID.X ;
SHL R1, R1, 0x5 ;
IADD R0, R0, R1 ;
SHL R1, R0, 0x5 ;
IADD R20, R1, c[0x0][0x160] ;
%[1]s R2, [R20] ;
%[1]s R4, [R20+0x8] ;
LDG.E R6, [R20+0x10] ;
IMAD R22, R0, 0x%[2]x, c[0x0][0x164] ;
`, load, 4*dumps)
	for p := 0; p < 7; p++ {
		fmt.Fprintf(&b, "MOV32I R%d, 0x%x ;\nLOP.AND R7, R6, R%d ;\nISETP.NE.AND P%d, PT, R7, RZ, PT ;\n", 12+p, 1<<p, 12+p, p)
	}
	slot := 0
	dump := func() {
		b.WriteString("SEL R10, R12, RZ, P0 ;\n")
		for p := 1; p < 7; p++ {
			fmt.Fprintf(&b, "SEL R11, R%d, RZ, P%d ;\nLOP.OR R10, R10, R11 ;\n", 12+p, p)
		}
		fmt.Fprintf(&b, "STG.E [R22+0x%x], R10 ;\n", 4*slot)
		slot++
	}
	label := 0
	for _, comb := range setpCombs {
		for _, pq := range setpPQs {
			for _, ps := range setpPSs {
				setp := fmt.Sprintf("%s.%s.%s P3, %s, R2, R4, %s ;\n", opc, mod, comb, pq, ps)
				b.WriteString(setp)
				dump()
				b.WriteString("@!P1 " + setp)
				dump()
				b.WriteString(setp)
				fmt.Fprintf(&b, "@%sP3 BRA L_%d ;\nIADD R9, R9, 0x%x ;\nL_%d:\n", setpTailNeg(label), label, 1<<label, label)
				label++
				dump()
			}
		}
	}
	fmt.Fprintf(&b, "STG.E [R22+0x%x], R9 ;\nEXIT ;\n", 4*slot)
	return sass.MustParse("setp_"+opc+"_"+mod, b.String())
}

// setpTailNeg is variant v's tail guard negation: every other tail is
// @!P3.
func setpTailNeg(v int) string { return [...]string{"", "!"}[v&1] }

// setpSeed is thread gid's initial P0..P6 (bit p is Pp).
func setpSeed(gid int) uint32 { return uint32(gid)*0x9E3779B1>>11 ^ uint32(gid) }

// setpModel is the scalar reference for one compare: Go's operators with
// the SASS NaN rules written out. Ordered float modifiers are false when
// either operand is NaN, the U variants true; integer compares never see
// an unordered pair, and the U variants read false for them.
func setpModel(mod string, isInt bool, a, b float64, ia, ib int32) bool {
	if isInt {
		switch mod {
		case "LT":
			return ia < ib
		case "LE":
			return ia <= ib
		case "GT":
			return ia > ib
		case "GE":
			return ia >= ib
		case "EQ":
			return ia == ib
		case "NE":
			return ia != ib
		}
		return false
	}
	nan := math.IsNaN(a) || math.IsNaN(b)
	switch mod {
	case "LT":
		return !nan && a < b
	case "LE":
		return !nan && a <= b
	case "GT":
		return !nan && a > b
	case "GE":
		return !nan && a >= b
	case "EQ":
		return !nan && a == b
	case "NE":
		return !nan && a != b
	case "LTU":
		return nan || a < b
	case "LEU":
		return nan || a <= b
	case "GTU":
		return nan || a > b
	case "GEU":
		return nan || a >= b
	case "EQU":
		return nan || a == b
	case "NEU":
		return nan || a != b
	}
	panic("unknown modifier " + mod)
}

// setpExpect runs the model for one thread and returns its dump words.
// Bit v of taken reports whether variant v's tail branched this thread;
// the last dump word is its complement over the variants.
func setpExpect(mod string, isInt bool, a, b float64, ia, ib int32, seed uint32) (want []uint32, taken uint32) {
	var p [8]bool
	for i := 0; i < 7; i++ {
		p[i] = seed>>uint(i)&1 != 0
	}
	p[sass.PT] = true
	c := setpModel(mod, isInt, a, b, ia, ib)
	reg := func(s string) int {
		if s == "PT" {
			return sass.PT
		}
		return int(s[1] - '0')
	}
	pack := func() uint32 {
		var w uint32
		for i := 0; i < 7; i++ {
			if p[i] {
				w |= 1 << uint(i)
			}
		}
		return w
	}
	for _, comb := range setpCombs {
		for _, pq := range setpPQs {
			for _, ps := range setpPSs {
				apply := func() {
					in := true
					if ps != "PT" {
						in = p[reg(strings.TrimPrefix(ps, "!"))] != strings.HasPrefix(ps, "!")
					}
					f := func(x bool) bool {
						switch comb {
						case "OR":
							return x || in
						case "XOR":
							return x != in
						}
						return x && in
					}
					p[3] = f(c)
					if pq != "PT" {
						p[reg(pq)] = f(!c)
					}
				}
				apply()
				want = append(want, pack())
				if !p[1] {
					apply()
				}
				want = append(want, pack())
				apply()
				v := len(want) / setpContexts
				if p[3] != (setpTailNeg(v) == "!") {
					taken |= 1 << uint(v)
				}
				want = append(want, pack())
			}
		}
	}
	return append(want, taken^(1<<uint(setpVariants)-1)), taken
}

// TestSetpTiersAgree is the predicate-semantics differential across tiers.
func TestSetpTiersAgree(t *testing.T) {
	type opcase struct {
		opc   string
		mods  []string
		isInt bool
	}
	cases := []opcase{{"FSETP", setpFloatMods, false}, {"DSETP", setpFloatMods, false}, {"ISETP", setpIntMods, true}}
	// The U variants of ISETP are accepted and read false.
	cases = append(cases, opcase{"ISETP", setpFloatMods[6:], true})
	dumps := setpVariants*setpContexts + 1
	nthreads := len(setpFloats) * len(setpFloats)
	for _, cs := range cases {
		for _, mod := range cs.mods {
			k := setpKernel(cs.opc, mod)
			checkSetpFusion(t, k, cs.opc)

			rec := make([]uint32, 8*nthreads)
			want := make([][]uint32, nthreads)
			// Some tail must split the warp, so later variants run
			// under a partial exec mask.
			someTaken, allTaken := uint32(0), ^uint32(0)
			for gid := 0; gid < nthreads; gid++ {
				i, j := gid/len(setpFloats), gid%len(setpFloats)
				fa, fb := setpFloats[i], setpFloats[j]
				ia, ib := setpInts[i], setpInts[j]
				switch {
				case cs.isInt:
					rec[8*gid], rec[8*gid+2] = uint32(ia), uint32(ib)
				case cs.opc == "DSETP":
					a, b := math.Float64bits(fa), math.Float64bits(fb)
					rec[8*gid], rec[8*gid+1] = uint32(a), uint32(a>>32)
					rec[8*gid+2], rec[8*gid+3] = uint32(b), uint32(b>>32)
				default:
					rec[8*gid], rec[8*gid+2] = math.Float32bits(float32(fa)), math.Float32bits(float32(fb))
				}
				rec[8*gid+4] = setpSeed(gid)
				var tk uint32
				want[gid], tk = setpExpect(mod, cs.isInt, fa, fb, ia, ib, setpSeed(gid))
				someTaken |= tk
				allTaken &= tk
			}
			if someTaken&^allTaken == 0 {
				t.Fatalf("%s.%s: no tail diverges", cs.opc, mod)
			}

			var ref []uint32
			var refCycles uint64
			for _, mode := range allTiers {
				d := New(DefaultConfig())
				in := d.Alloc(uint32(4 * len(rec)))
				for i, v := range rec {
					d.Store32(in+uint32(4*i), v)
				}
				out := d.Alloc(uint32(4 * dumps * nthreads))
				st, err := d.launch(&Launch{Kernel: k, GridDim: nthreads / WarpSize, BlockDim: WarpSize,
					Params: []uint32{in, out}}, mode)
				if err != nil {
					t.Fatalf("%s.%s %s: %v", cs.opc, mod, mode, err)
				}
				got := make([]uint32, dumps*nthreads)
				for i := range got {
					got[i] = d.Load32(out + uint32(4*i))
				}
				if mode == tierInterp {
					ref, refCycles = got, st.Cycles
					for gid := 0; gid < nthreads; gid++ {
						for s, w := range want[gid] {
							if g := got[gid*dumps+s]; g != w {
								t.Errorf("%s.%s interp: thread %d dump %d = %07b, model %07b", cs.opc, mod, gid, s, g, w)
							}
						}
					}
					continue
				}
				if st.Cycles != refCycles {
					t.Errorf("%s.%s %s: %d cycles, interp %d", cs.opc, mod, mode, st.Cycles, refCycles)
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Errorf("%s.%s %s: thread %d dump %d = %07b, interp %07b", cs.opc, mod, mode, i/dumps, i%dumps, got[i], ref[i])
					}
				}
			}
		}
	}
}

// checkSetpFusion asserts the kernel's shape on the fused tier: the
// unguarded SETPs sit in fused region bodies, the guarded ones are stepped,
// and every @P3 and @!P3 BRA is a fused tail.
func checkSetpFusion(t *testing.T, k *sass.Kernel, opc string) {
	t.Helper()
	prog := programFor(k)
	inRegion := make([]bool, len(k.Instrs))
	tails := 0
	for _, r := range prog.fk.regions {
		for pc := r.start; pc < r.end; pc++ {
			inRegion[pc] = true
		}
		if r.tail && r.tailPred == 3 && r.tailNeg == negMask(tails%2 == 1) {
			tails++
		}
	}
	unguarded, guarded := 0, 0
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		if in.Op.String() != opc || in.Operands[0].Pred != 3 || in.Operands[2].Reg != 2 {
			continue
		}
		switch {
		case prog.meta.guardPT[pc] && inRegion[pc]:
			unguarded++
		case !prog.meta.guardPT[pc] && !inRegion[pc]:
			guarded++
		}
	}
	if n := setpVariants; tails != n || guarded != n || unguarded != 2*n {
		t.Fatalf("%s: %d fused tails, %d stepped guarded and %d fused unguarded SETPs; want %d, %d, %d", k.Name, tails, guarded, unguarded, n, n, 2*n)
	}
}
