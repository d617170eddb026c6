package report

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"gpufpx/internal/cc"
	"gpufpx/internal/cuda"
	"gpufpx/internal/fpx"
)

func rec(exc, format, kernel, file string, line, pc int) fpx.RecordJSON {
	return fpx.RecordJSON{Exception: exc, Format: format, Kernel: kernel, File: file, Line: line, PC: pc, SASS: "FADD R1, R2, R3 ;"}
}

func TestCompareDetectorClassifiesRecords(t *testing.T) {
	before := fpx.DetectorReportJSON{
		Records: []fpx.RecordJSON{
			rec("NaN", "FP32", "k", "a.cu", 10, 4),
			rec("DIV0", "FP32", "k", "a.cu", 20, 9),
			rec("SUBNORMAL", "FP64", "k", "a.cu", 30, 15),
		},
		Severe: 2,
	}
	after := fpx.DetectorReportJSON{
		Records: []fpx.RecordJSON{
			// Same source site, shifted PC after recompilation: persisting.
			rec("DIV0", "FP32", "k", "a.cu", 20, 12),
			rec("SUBNORMAL", "FP64", "k", "a.cu", 30, 18),
			// A fresh INF the fix introduced.
			rec("INF", "FP32", "k", "a.cu", 21, 13),
		},
		Severe: 2,
	}
	d := CompareDetector(before, after)
	if len(d.Fixed) != 1 || d.Fixed[0].Exception != "NaN" {
		t.Fatalf("fixed = %+v, want the NaN record", d.Fixed)
	}
	if len(d.New) != 1 || d.New[0].Exception != "INF" {
		t.Fatalf("new = %+v, want the INF record", d.New)
	}
	if len(d.Persisting) != 2 {
		t.Fatalf("persisting = %+v, want DIV0 + SUBNORMAL", d.Persisting)
	}
	// Persisting records must carry the after-run PC.
	for _, r := range d.Persisting {
		if r.Exception == "DIV0" && r.PC != 12 {
			t.Errorf("persisting DIV0 PC = %d, want the after-run 12", r.PC)
		}
	}
	if d.Clean() {
		t.Error("diff with a new INF and persisting DIV0 must not be clean")
	}
	if d.FixedSevere() != 1 {
		t.Errorf("FixedSevere = %d, want 1", d.FixedSevere())
	}
}

func TestCompareDetectorMatchesBySASSWhenNoSource(t *testing.T) {
	// Closed-source kernels report /unknown_path; the SASS text is the only
	// stable site identifier.
	mk := func(sassText string, pc int) fpx.RecordJSON {
		return fpx.RecordJSON{Exception: "NaN", Format: "FP32", Kernel: "blob", PC: pc, SASS: sassText}
	}
	before := fpx.DetectorReportJSON{Records: []fpx.RecordJSON{mk("FMUL R1, R2, R3 ;", 5)}}
	after := fpx.DetectorReportJSON{Records: []fpx.RecordJSON{mk("FMUL R1, R2, R3 ;", 8)}}
	d := CompareDetector(before, after)
	if len(d.Persisting) != 1 || len(d.Fixed) != 0 || len(d.New) != 0 {
		t.Fatalf("same SASS at shifted PC must persist: %+v", d)
	}
	// Different SASS means a different site.
	after2 := fpx.DetectorReportJSON{Records: []fpx.RecordJSON{mk("FADD R1, R2, R3 ;", 5)}}
	d2 := CompareDetector(before, after2)
	if len(d2.Fixed) != 1 || len(d2.New) != 1 {
		t.Fatalf("different SASS must read as fixed+new: %+v", d2)
	}
}

func TestCompareDetectorMultisetMatching(t *testing.T) {
	// Two NaN records on the same source line (distinct PCs, one key):
	// fixing one of them must leave exactly one persisting and one fixed.
	before := fpx.DetectorReportJSON{Records: []fpx.RecordJSON{
		rec("NaN", "FP32", "k", "a.cu", 10, 4),
		rec("NaN", "FP32", "k", "a.cu", 10, 7),
	}}
	after := fpx.DetectorReportJSON{Records: []fpx.RecordJSON{
		rec("NaN", "FP32", "k", "a.cu", 10, 4),
	}}
	d := CompareDetector(before, after)
	if len(d.Persisting) != 1 || len(d.Fixed) != 1 || len(d.New) != 0 {
		t.Fatalf("multiset matching broken: persisting=%d fixed=%d new=%d",
			len(d.Persisting), len(d.Fixed), len(d.New))
	}
}

func TestCleanVerdicts(t *testing.T) {
	subOnly := fpx.DetectorReportJSON{Records: []fpx.RecordJSON{
		rec("SUBNORMAL", "FP32", "k", "a.cu", 5, 1),
	}}
	empty := fpx.DetectorReportJSON{}
	if d := CompareDetector(subOnly, subOnly); !d.Clean() {
		t.Error("persisting subnormal warning alone should still be clean")
	}
	if d := CompareDetector(subOnly, empty); !d.Clean() {
		t.Error("everything fixed must be clean")
	}
	if d := CompareDetector(empty, subOnly); d.Clean() {
		t.Error("a new record of any kind must not be clean")
	}
	severePersist := fpx.DetectorReportJSON{Records: []fpx.RecordJSON{
		rec("INF", "FP32", "k", "a.cu", 5, 1),
	}}
	if d := CompareDetector(severePersist, severePersist); d.Clean() {
		t.Error("persisting INF must not be clean")
	}
}

// Property: diffing identical reports yields only persisting records;
// diffing against an empty report yields only fixed (or only new).
func TestCompareDetectorProperties(t *testing.T) {
	excs := []string{"NaN", "INF", "SUBNORMAL", "DIV0"}
	formats := []string{"FP32", "FP64", "FP16"}
	mkReport := func(seeds []uint32) fpx.DetectorReportJSON {
		var rep fpx.DetectorReportJSON
		for i, s := range seeds {
			rep.Records = append(rep.Records, rec(
				excs[s%4], formats[(s>>2)%3], "k",
				"f.cu", int(s>>4%50), i,
			))
		}
		return rep
	}
	prop := func(seeds []uint32) bool {
		rep := mkReport(seeds)
		empty := fpx.DetectorReportJSON{}

		same := CompareDetector(rep, rep)
		if len(same.Fixed) != 0 || len(same.New) != 0 || len(same.Persisting) != len(rep.Records) {
			return false
		}
		gone := CompareDetector(rep, empty)
		if len(gone.Fixed) != len(rep.Records) || len(gone.New) != 0 || len(gone.Persisting) != 0 {
			return false
		}
		fresh := CompareDetector(empty, rep)
		if len(fresh.New) != len(rep.Records) || len(fresh.Fixed) != 0 || len(fresh.Persisting) != 0 {
			return false
		}
		// Conservation: every before-record is fixed or persisting; every
		// after-record is new or persisting.
		return len(gone.Fixed)+len(gone.Persisting) == len(rep.Records)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// End-to-end: run the detector on a buggy kernel and on its fixed rebuild,
// round-trip both reports through JSON, and diff — the §5.2 GMRES loop.
func TestEndToEndFixWorkflow(t *testing.T) {
	// Buggy: out[i] = 1/(x[i]-x[0]) + log-like NaN for negative inputs via
	// sqrt(x[i]-2). The fix guards the sqrt but keeps the division bug.
	buggy := &cc.KernelDef{
		Name:       "iterate",
		SourceFile: "solver.cu",
		Params:     []cc.Param{{Name: "x", Kind: cc.PtrF32}, {Name: "out", Kind: cc.PtrF32}},
		Body: []cc.Stmt{
			cc.LetAt(12, "d", cc.SubE(cc.At("x", cc.Gid()), cc.At("x", cc.I(0)))),
			cc.LetAt(13, "r", cc.SqrtE(cc.SubE(cc.At("x", cc.Gid()), cc.F(2)))),
			cc.StoreAt(14, "out", cc.Gid(), cc.AddE(cc.DivE(cc.F(1), cc.V("d")), cc.V("r"))),
		},
	}
	fixed := &cc.KernelDef{
		Name:       "iterate",
		SourceFile: "solver.cu",
		Params:     []cc.Param{{Name: "x", Kind: cc.PtrF32}, {Name: "out", Kind: cc.PtrF32}},
		Body: []cc.Stmt{
			cc.LetAt(12, "d", cc.SubE(cc.At("x", cc.Gid()), cc.At("x", cc.I(0)))),
			// Guarded sqrt: max(x-2, 0).
			cc.LetAt(13, "r", cc.SqrtE(cc.MaxE(cc.SubE(cc.At("x", cc.Gid()), cc.F(2)), cc.F(0)))),
			cc.StoreAt(14, "out", cc.Gid(), cc.AddE(cc.DivE(cc.F(1), cc.V("d")), cc.V("r"))),
		},
	}
	runOnce := func(def *cc.KernelDef) fpx.DetectorReportJSON {
		t.Helper()
		k, err := cc.Compile(def, cc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := cuda.NewContext()
		det := fpx.AttachDetector(ctx, fpx.DefaultDetectorConfig())
		const n = 32
		x := ctx.Dev.Alloc(4 * n)
		for i := 0; i < n; i++ {
			ctx.Dev.Store32(x+uint32(4*i), math.Float32bits(float32(i)*0.25))
		}
		out := ctx.Dev.Alloc(4 * n)
		if err := ctx.Launch(k, 1, n, x, out); err != nil {
			t.Fatal(err)
		}
		ctx.Exit()
		var buf bytes.Buffer
		if err := det.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		rep, err := LoadDetector(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	before := runOnce(buggy)
	after := runOnce(fixed)
	d := CompareDetector(before, after)

	hasExc := func(rs []fpx.RecordJSON, exc string) bool {
		for _, r := range rs {
			if r.Exception == exc {
				return true
			}
		}
		return false
	}
	if !hasExc(d.Fixed, "NaN") {
		t.Errorf("sqrt guard should have fixed the NaN; fixed=%+v", d.Fixed)
	}
	if !hasExc(d.Persisting, "DIV0") {
		t.Errorf("the division bug must persist; persisting=%+v", d.Persisting)
	}
	// With the NaN silenced, the INF from the unfixed division now reaches
	// the line-14 add un-masked and surfaces as a *new* record — the
	// fix-one-exception-expose-another effect the diff is built to catch.
	if !hasExc(d.New, "INF") {
		t.Errorf("expected the newly-exposed INF at line 14: %+v", d.New)
	}
	if d.Clean() {
		t.Error("persisting DIV0 must keep the verdict not-clean")
	}

	var txt strings.Builder
	d.WriteText(&txt)
	for _, want := range []string{"FIXED (", "PERSISTING (", "solver.cu:14", "NOT CLEAN"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text diff missing %q:\n%s", want, txt.String())
		}
	}
}

func TestCompareAnalyzer(t *testing.T) {
	before := fpx.AnalyzerReportJSON{
		States: map[string]int{"APPEARANCE": 5, "PROPAGATION": 20, "DISAPPEARANCE": 1},
		TopFlows: []fpx.FlowSiteJSON{
			{Kernel: "k", File: "a.cu", Line: 10, Total: 20, SASS: "FMUL R1, R1, R2 ;"},
			{Kernel: "k", File: "a.cu", Line: 11, Total: 5, SASS: "FADD R3, R1, R4 ;"},
		},
	}
	after := fpx.AnalyzerReportJSON{
		States: map[string]int{"APPEARANCE": 0, "PROPAGATION": 3, "DISAPPEARANCE": 1},
		TopFlows: []fpx.FlowSiteJSON{
			{Kernel: "k", File: "a.cu", Line: 11, Total: 3, SASS: "FADD R3, R1, R4 ;"},
		},
	}
	d := CompareAnalyzer(before, after)
	if c := d.States["PROPAGATION"]; c != [2]int{20, 3} {
		t.Errorf("PROPAGATION counts = %v, want [20 3]", c)
	}
	if len(d.FixedSites) != 1 || d.FixedSites[0].Line != 10 {
		t.Errorf("fixed sites = %+v, want the line-10 site", d.FixedSites)
	}
	if len(d.NewSites) != 0 {
		t.Errorf("new sites = %+v", d.NewSites)
	}
	if d.Quiet() {
		t.Error("3 propagations remain; not quiet")
	}
	empty := fpx.AnalyzerReportJSON{States: map[string]int{"APPEARANCE": 0}}
	if dq := CompareAnalyzer(before, empty); !dq.Quiet() {
		t.Error("all-zero after run must be quiet")
	}

	var txt strings.Builder
	d.WriteText(&txt)
	for _, want := range []string{"PROPAGATION", "(-17)", "a.cu:10"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("analyzer text diff missing %q:\n%s", want, txt.String())
		}
	}
	const wantText = "flow-state events (before -> after):\n" +
		"  APPEARANCE              5 -> 0         (-5)\n" +
		"  DISAPPEARANCE           1 -> 1       \n" +
		"  PROPAGATION            20 -> 3         (-17)\n" +
		"flow sites fixed (1):\n" +
		"  [k] @ a.cu:10 (20 events)\n" +
		"flow sites new (0):\n"
	if txt.String() != wantText {
		t.Errorf("analyzer text diff:\n%s\nwant:\n%s", txt.String(), wantText)
	}
	txt.Reset()
	dq := CompareAnalyzer(after, fpx.AnalyzerReportJSON{
		States: map[string]int{"APPEARANCE": 0, "PROPAGATION": 0, "DISAPPEARANCE": 0},
		TopFlows: []fpx.FlowSiteJSON{
			{Kernel: "k2", PC: 48, Total: 7, SASS: "FSETP.GT.AND P0, PT, R1, R2, PT ;"},
		},
	})
	dq.WriteText(&txt)
	const wantQuiet = "flow-state events (before -> after):\n" +
		"  APPEARANCE              0 -> 0       \n" +
		"  DISAPPEARANCE           1 -> 0         (-1)\n" +
		"  PROPAGATION             3 -> 0         (-3)\n" +
		"flow sites fixed (1):\n" +
		"  [k] @ a.cu:11 (3 events)\n" +
		"flow sites new (1):\n" +
		"  [k2] @ FSETP.GT.AND P0, PT, R1, R2, PT ; (7 events)\n" +
		"verdict: QUIET (no exception flow remains)\n"
	if txt.String() != wantQuiet {
		t.Errorf("quiet analyzer text diff:\n%s\nwant:\n%s", txt.String(), wantQuiet)
	}
}

func TestCompareShadow(t *testing.T) {
	before := fpx.ShadowReportJSON{
		Kinds: map[string]uint64{"SIGNIFICANCE LOSS": 9, "CANCELLATION": 4, "DIVERGENCE": 0},
		TopSites: []fpx.ShadowSiteJSON{
			{Kernel: "sum", File: "ill_sum.cu", Line: 16, Total: 4, SASS: "FADD R4, R2, -R3 ;"},
			{Kernel: "sum", File: "ill_sum.cu", Line: 18, Total: 9, SASS: "FMUL R5, R4, R4 ;"},
		},
	}
	after := fpx.ShadowReportJSON{
		Kinds: map[string]uint64{"SIGNIFICANCE LOSS": 12, "CANCELLATION": 0, "DIVERGENCE": 1},
		TopSites: []fpx.ShadowSiteJSON{
			{Kernel: "sum", File: "ill_sum.cu", Line: 18, Total: 12, SASS: "FMUL R5, R4, R4 ;"},
			{Kernel: "sum", PC: 96, Total: 1, SASS: "MUFU.RCP R6, R5 ;"},
		},
	}
	d := CompareShadow(before, after)
	if c := d.Kinds["CANCELLATION"]; c != [2]uint64{4, 0} {
		t.Errorf("CANCELLATION counts = %v, want [4 0]", c)
	}
	if len(d.FixedSites) != 1 || d.FixedSites[0].Line != 16 {
		t.Errorf("fixed sites = %+v, want the line-16 site", d.FixedSites)
	}
	if len(d.NewSites) != 1 || d.NewSites[0].PC != 96 {
		t.Errorf("new sites = %+v, want the binary-only MUFU site", d.NewSites)
	}
	if d.Quiet() {
		t.Error("13 findings remain; not quiet")
	}
	if dq := CompareShadow(after, fpx.ShadowReportJSON{Kinds: map[string]uint64{"DIVERGENCE": 0}}); !dq.Quiet() {
		t.Error("all-zero after run must be quiet")
	}

	var txt strings.Builder
	d.WriteText(&txt)
	const wantText = "shadow findings (before -> after):\n" +
		"  CANCELLATION              4 -> 0         (-4)\n" +
		"  DIVERGENCE                0 -> 1         (+1)\n" +
		"  SIGNIFICANCE LOSS         9 -> 12        (+3)\n" +
		"shadow sites fixed (1):\n" +
		"  [sum] @ ill_sum.cu:16 (4 findings)\n" +
		"shadow sites new (1):\n" +
		"  [sum] @ MUFU.RCP R6, R5 ; (1 findings)\n"
	if txt.String() != wantText {
		t.Errorf("shadow text diff:\n%s\nwant:\n%s", txt.String(), wantText)
	}
	txt.Reset()
	CompareShadow(after, fpx.ShadowReportJSON{}).WriteText(&txt)
	const wantQuiet = "shadow findings (before -> after):\n" +
		"  CANCELLATION              0 -> 0       \n" +
		"  DIVERGENCE                1 -> 0         (-1)\n" +
		"  SIGNIFICANCE LOSS        12 -> 0         (-12)\n" +
		"shadow sites fixed (2):\n" +
		"  [sum] @ ill_sum.cu:18 (12 findings)\n" +
		"  [sum] @ MUFU.RCP R6, R5 ; (1 findings)\n" +
		"shadow sites new (0):\n" +
		"verdict: QUIET (no precision loss remains)\n"
	if txt.String() != wantQuiet {
		t.Errorf("quiet shadow text diff:\n%s\nwant:\n%s", txt.String(), wantQuiet)
	}
}

// End-to-end analyzer diff: the fixed SRU-style kernel silences all flow.
func TestEndToEndAnalyzerQuiet(t *testing.T) {
	def := func(poison bool) *cc.KernelDef {
		init := cc.F(1)
		if poison {
			init = cc.DivE(cc.F(0), cc.F(0)) // uninitialized-tensor stand-in
		}
		return &cc.KernelDef{
			Name:       "cell",
			SourceFile: "sru.cu",
			Params:     []cc.Param{{Name: "h", Kind: cc.PtrF32}},
			Body: []cc.Stmt{
				cc.LetAt(7, "state", init),
				cc.StoreAt(8, "h", cc.Gid(), cc.MulE(cc.V("state"), cc.F(0.5))),
			},
		}
	}
	run := func(poison bool) fpx.AnalyzerReportJSON {
		t.Helper()
		k, err := cc.Compile(def(poison), cc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := cuda.NewContext()
		ana := fpx.AttachAnalyzer(ctx, fpx.DefaultAnalyzerConfig())
		h := ctx.Dev.Alloc(4 * 32)
		if err := ctx.Launch(k, 1, 32, h); err != nil {
			t.Fatal(err)
		}
		ctx.Exit()
		var buf bytes.Buffer
		if err := ana.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		rep, err := LoadAnalyzer(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	d := CompareAnalyzer(run(true), run(false))
	if !d.Quiet() {
		t.Fatalf("fixed kernel must be flow-quiet: %+v", d.States)
	}
	if len(d.FixedSites) == 0 {
		t.Error("the poisoned flow site should show up as fixed")
	}
}

func TestLoadSchemaVersioning(t *testing.T) {
	// Legacy reports predate the schema field; 0 reads as the current major.
	legacy := `{"records": [], "counts": {}, "severe": 0, "dynamic_exceptions": 0}`
	if rep, err := LoadDetector(strings.NewReader(legacy)); err != nil {
		t.Errorf("legacy schema-0 detector report rejected: %v", err)
	} else if rep.Schema != 0 {
		t.Errorf("legacy report schema = %d, want 0 preserved", rep.Schema)
	}
	current := `{"schema": 1, "records": [], "counts": {}, "severe": 0, "dynamic_exceptions": 0}`
	if _, err := LoadDetector(strings.NewReader(current)); err != nil {
		t.Errorf("current schema-1 detector report rejected: %v", err)
	}
	// An unknown major must fail with the typed sentinel, not mislead a
	// reader into silently dropping fields it does not know.
	future := `{"schema": 9, "records": []}`
	if _, err := LoadDetector(strings.NewReader(future)); !errors.Is(err, ErrSchema) {
		t.Errorf("schema-9 detector report: err = %v, want ErrSchema", err)
	}
	if _, err := LoadAnalyzer(strings.NewReader(`{"schema": 3, "states": {}}`)); !errors.Is(err, ErrSchema) {
		t.Errorf("schema-3 analyzer report: err = %v, want ErrSchema", err)
	}
	if _, err := LoadAnalyzer(strings.NewReader(`{"schema": 1, "states": {}}`)); err != nil {
		t.Errorf("current analyzer report rejected: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadDetector(strings.NewReader("{not json")); err == nil {
		t.Error("LoadDetector accepted garbage")
	}
	if _, err := LoadAnalyzer(strings.NewReader("")); err == nil {
		t.Error("LoadAnalyzer accepted empty input")
	}
}
