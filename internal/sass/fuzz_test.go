package sass

import "testing"

// parseSeeds span every syntactic feature of a listing, and some
// malformed ones.
var parseSeeds = []string{
	"FADD R1, R2, R3 ;",
	"@!P0 FFMA R1, -R2, |R3|, 1.5 ;",
	"MUFU.RCP64H R5, R4 ;",
	"FSETP.LT.AND P0, PT, R3, c[0x0][0x160], PT ;",
	"LDG.E.64 R2, [R4+0x10] ;\nSTG.E [R4], R2 ;",
	"L0: IADD R1, R1, 0x1 ;\n@P0 BRA L0 ;\nEXIT ;",
	".loc kernel.cu 776\nFADD R1, R1, R2 ;",
	"MUFU.RSQ RZ, -QNAN ;",
	"FADD RZ, RZ, +INF ;",
	"SHFL.BFLY R1, R2, 0x10 ;",
	"S2R R0, SR_TID.X ;",
	"BAR.SYNC ;",
	"HADD2 R1, R2, R3 ;",
	"// only a comment",
	"",
	"FADD R1 R2 R3",      // missing commas
	"BRA nowhere ;",      // dangling label
	"@Q0 FADD R1,R1,R1;", // bad guard
	"c[0x0][0x160]",      // bare operand
	"\x00\xff\xfe",
}

// FuzzParse hardens the assembler against malformed listings: whatever the
// input, Parse must either return an error or produce a kernel whose
// formatted text reparses to the same instructions (no panics, no silent
// corruption).
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		k, err := Parse("fuzz", src)
		if err != nil {
			return // rejecting malformed input is fine
		}
		// Accepted input must round-trip through the formatter.
		text := Format(k)
		k2, err := Parse("fuzz2", text)
		if err != nil {
			t.Fatalf("formatted output does not reparse: %v\ninput: %q\nformatted: %q", err, src, text)
		}
		if len(k2.Instrs) != len(k.Instrs) {
			t.Fatalf("round trip changed instruction count %d -> %d\ninput: %q", len(k.Instrs), len(k2.Instrs), src)
		}
		for i := range k.Instrs {
			if k.Instrs[i].String() != k2.Instrs[i].String() {
				t.Fatalf("instr %d changed: %q -> %q", i, k.Instrs[i].String(), k2.Instrs[i].String())
			}
		}
	})
}
