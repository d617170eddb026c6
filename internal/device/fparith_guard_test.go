package device

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"strings"
	"testing"
)

// fpDefinitions are the functions that define the executor's floating-point
// operations. Every tier calls them, so the tiers agree bit for bit by
// construction, and fpref_test.go checks them against math/big.
var fpDefinitions = map[string]bool{
	"add32": true, "mul32": true, "fma32": true,
	"add64": true, "mul64": true, "mufuEval": true,
}

// TestFloatArithmeticOnlyInDefinitions type-checks the package and fails on
// any float32 or float64 + - * / (or op-assign, ++, --) outside
// fpDefinitions. A host operator written at a call site picks its own NaN
// payload when both operands are NaN, so two tiers that each wrote one
// could disagree; and on x86 a float32 multiply whose result is subnormal
// takes a microcode assist that costs ~40x a normal multiply, which mul32
// avoids by computing through float64.
func TestFloatArithmeticOnlyInDefinitions(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs["device"]
	if pkg == nil {
		t.Fatal("package device not found")
	}
	var files []*ast.File
	for _, f := range pkg.Files {
		files = append(files, f)
	}
	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("gpufpx/internal/device", fset, files, info); err != nil {
		t.Fatal(err)
	}
	isFloat := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		if !ok || tv.Value != nil { // constant expressions fold at compile time
			return false
		}
		b, ok := tv.Type.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsFloat != 0
	}
	arith := map[token.Token]bool{
		token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
		token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true, token.QUO_ASSIGN: true,
		token.INC: true, token.DEC: true,
	}
	checked, defined := 0, 0
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fpDefinitions[fd.Name.Name] {
				defined++
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					checked++
					if arith[n.Op] && isFloat(n) {
						t.Errorf("%s: float %s outside the FP definitions", fset.Position(n.OpPos), n.Op)
					}
				case *ast.AssignStmt:
					if arith[n.Tok] && isFloat(n.Lhs[0]) {
						t.Errorf("%s: float %s outside the FP definitions", fset.Position(n.TokPos), n.Tok)
					}
				case *ast.IncDecStmt:
					if isFloat(n.X) {
						t.Errorf("%s: float %s outside the FP definitions", fset.Position(n.TokPos), n.Tok)
					}
				}
				return true
			})
		}
	}
	if checked == 0 {
		t.Fatal("no binary expressions inspected")
	}
	if defined != len(fpDefinitions) {
		t.Fatalf("found %d of the %d FP definitions", defined, len(fpDefinitions))
	}
}
