package gpufpx

// FuzzRun drives arbitrary SASS text through the whole hardened path —
// parser, validator, compiler cache, executor, facade barrier — and asserts
// the public contract: every outcome is either a valid report or a typed
// *Error. A panic, an untyped error, or a nil-report success is a finding.
// It is also a differential fuzzer: every input runs again on the reference
// interpreter, which must give the same error kind and message, or the same
// cycles, launch count and detector report bytes.
//
// The seed corpus spans the grammar the executors implement (FP32/FP64
// arithmetic, MUFU, predication, control flow, memory, tensor cores) plus
// the malformed shapes the validator exists for. testdata/fuzz/FuzzRun holds
// regression inputs; `go test` replays seeds and corpus without -fuzz.

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"gpufpx/internal/device"
)

func FuzzRun(f *testing.F) {
	seeds := []string{
		// Well-formed kernels, corpus-style.
		"FADD R2, R3, R4 ;\nEXIT ;\n",
		"MOV32I R2, 0x3f800000 ;\nMUFU.RCP R3, R2 ;\nEXIT ;\n",
		"DADD R2, R4, R6 ;\nDMUL R8, R2, R4 ;\nEXIT ;\n",
		"FSETP.GT.AND P0, PT, R2, R3, PT ;\n@P0 FADD R4, R4, R5 ;\nEXIT ;\n",
		"S2R R0, SR_TID.X ;\nSHL R1, R0, 0x2 ;\nLDG.E R2, [R1] ;\nFADD R2, R2, R2 ;\nSTG.E [R1], R2 ;\nEXIT ;\n",
		"L_top:\nIADD R1, R1, 0x1 ;\nISETP.LT.AND P0, PT, R1, 0x10, PT ;\n@P0 BRA L_top ;\nEXIT ;\n",
		"HMMA.1688.F32 R4, R8, R12, R4 ;\nEXIT ;\n",
		"FADD R2, RZ, -QNAN ;\nFCHK P0, R2, R3 ;\nEXIT ;\n",
		"F2F.F64.F32 R4, R2 ;\nEXIT ;\n",
		"BAR.SYNC 0x0 ;\nEXIT ;\n",
		// Malformed: parse errors, arity, type and pair hazards.
		"",
		"NOT AN OPCODE ;\n",
		"FMUL R2, R3 ;\nEXIT ;\n",
		"DADD R2, RZ, R4 ;\nEXIT ;\n",
		"MUFU.RCP64H R0, R2 ;\nEXIT ;\n",
		"STG.E 0x10, R2 ;\nEXIT ;\n",
		"FSETP.GT.AND R0, PT, R2, R3, PT ;\nEXIT ;\n",
		"BRA L_nowhere ;\n",
		"MOV32I R0, 0x7fffff00 ;\nLDG.E R1, [R0] ;\nEXIT ;\n",
		"L_top:\nFADD R2, R2, R3 ;\nBRA L_top ;\n",
		// S2R reads its operand's special-register field whatever the
		// operand's kind: here lane l's TID.X, on every tier.
		"S2R R2,0\nFADD R0,[R0],R2",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, src string) {
		// A small budget keeps fuzz iterations fast while still reaching
		// the executors; budget exhaustion is a legitimate typed outcome.
		run := func() (*Report, error) {
			s := New(WithCycleBudget(200_000))
			return s.Run(context.Background(), SASSText("fuzz.sass", src, 1, 32))
		}
		rep, err := run()
		var ref *Report
		var refErr error
		func() {
			defer device.ForceTierForTest("interp")()
			ref, refErr = run()
		}()
		if err != nil {
			var ge *Error
			if !errors.As(err, &ge) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			if refErr == nil || Classify(refErr) != ge.Kind || refErr.Error() != err.Error() {
				t.Fatalf("error %v (%v); interpreter: %v", err, ge.Kind, refErr)
			}
			return
		}
		if rep == nil {
			t.Fatal("nil report with nil error")
		}
		if refErr != nil {
			t.Fatalf("interpreter failed where production ran: %v", refErr)
		}
		if rep.Cycles != ref.Cycles || rep.Launches != ref.Launches {
			t.Fatalf("%d cycles, %d launches; interpreter %d, %d", rep.Cycles, rep.Launches, ref.Cycles, ref.Launches)
		}
		if !bytes.Equal(rep.ToolBody(), ref.ToolBody()) {
			t.Fatalf("detector report differs from the interpreter's:\n%s\ninterpreter:\n%s", rep.ToolBody(), ref.ToolBody())
		}
	})
}
