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

// TestFloat32MultiplyOnlyInMul32 keeps every FP32 product in the executor on
// the assist-free path. On x86 a float32 MULSS whose result is subnormal
// takes a microcode assist that costs ~40x a normal multiply; mul32 computes
// the same bits through float64. Any float32 `*` or `*=` outside mul32 — a
// new fused shape, a hand-written fast path — fails here.
func TestFloat32MultiplyOnlyInMul32(t *testing.T) {
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
	isF32 := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		if !ok || tv.Value != nil { // constant products fold at compile time
			return false
		}
		b, ok := tv.Type.Underlying().(*types.Basic)
		return ok && b.Kind() == types.Float32
	}
	checked := 0
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "mul32" && fd.Recv == nil {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					checked++
					if n.Op == token.MUL && isF32(n) {
						t.Errorf("%s: float32 multiply outside mul32", fset.Position(n.OpPos))
					}
				case *ast.AssignStmt:
					if n.Tok == token.MUL_ASSIGN && isF32(n.Lhs[0]) {
						t.Errorf("%s: float32 *= outside mul32", fset.Position(n.TokPos))
					}
				}
				return true
			})
		}
	}
	if checked == 0 {
		t.Fatal("no binary expressions inspected")
	}
}
