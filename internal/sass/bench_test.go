package sass

import "testing"

// benchListing is a listing of the size and grammar fpx-serve receives
// from generated SASS checks: 38 instructions of FP32/FP64 arithmetic,
// MUFU, predication and a counted loop, 892 bytes.
const benchListing = `MOV32I R2, 0xbf32555e ;
MOV32I R3, 0xff913592 ;
MOV32I R4, 0xff7e3da8 ;
MOV32I R5, 0x7faa701f ;
MOV32I R6, 0x00000000 ;
MOV32I R7, 0x004ceda6 ;
MOV32I R8, 0x80806508 ;
MOV32I R9, 0x7f800000 ;
MOV32I R16, 0xd1548fcd ;
MOV32I R17, 0x0007b6f7 ;
MOV32I R18, 0x864a7135 ;
MOV32I R19, 0x80000000 ;
FMNMX R4, R7, R6, PT ;
FSETP.GT.AND P1, PT, R7, R3, PT ;
@P1 FADD R2, R6, R8 ;
MUFU.RCP R4, R3 ;
FMUL R8, R8, R5 ;
DMUL R18, R16, R18 ;
FSETP.LT.AND P1, PT, R2, R2, PT ;
@P1 FADD R9, R9, R9 ;
MOV32I R1, 0x0 ;
L_loop:
FADD R9, R6, R5 ;
FSETP.GT.AND P1, PT, R5, R5, PT ;
@P1 FADD R3, R5, R3 ;
FADD R7, R5, R8 ;
DADD R16, R16, R18 ;
IADD R1, R1, 0x1 ;
ISETP.LT.AND P0, PT, R1, 0x4b, PT ;
@P0 BRA L_loop ;
DADD R16, R16, R18 ;
DADD R16, R16, R18 ;
MOV32I R3, 0xbf4b83f2 ;
MOV32I R3, 0x8080315c ;
MOV32I R20, 0x00000000 ;
MUFU.RCP R22, R20 ;
FSETP.GE.AND P1, PT, R2, R3, PT ;
@P1 FADD R2, R4, R3 ;
EXIT ;
`

// BenchmarkParse assembles one generated-check-sized listing per op: the
// parse every never-seen SASS check pays.
func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(len(benchListing)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse("bench.sass", benchListing); err != nil {
			b.Fatal(err)
		}
	}
}
