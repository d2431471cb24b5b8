package rjoin

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// A run is a pure function of (seed, workload, options). The goldens
// and the worker-count differential tests certify that after the
// fact; DESIGN.md "Determinism invariants" lists the violations seeded
// into the engine to learn which of them those tests catch. The rules
// below hold the classes they do not catch, over the source of the
// packages under the replay contract: the engine's, and the root
// package, whose Options.Churn trials draw membership changes.
var engineScope = []string{".", "internal/agg", "internal/chord", "internal/core", "internal/obs", "internal/obs/profile",
	"internal/overlay", "internal/query", "internal/reliable", "internal/share", "internal/sim"}

// checkedFile is one type-checked non-test source file.
type checkedFile struct {
	fset *token.FileSet
	file *ast.File
	info *types.Info
}

// engineFiles type-checks every non-test file of engineScope (module
// directories, each checked as package rjoin/<dir>) once per test
// binary; the source importer compiles their imports from source, so
// nothing outside the standard library is needed.
var engineFiles = sync.OnceValues(func() ([]checkedFile, error) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var out []checkedFile
	for _, pkg := range engineScope {
		dir := filepath.FromSlash(pkg)
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		checked, err := typeCheck(fset, imp, path.Join("rjoin", pkg), files)
		if err != nil {
			return nil, err
		}
		out = append(out, checked...)
	}
	return out, nil
})

func typeCheck(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) ([]checkedFile, error) {
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{Importer: imp}).Check(path, fset, files, info); err != nil {
		return nil, err
	}
	out := make([]checkedFile, len(files))
	for i, f := range files {
		out[i] = checkedFile{fset, f, info}
	}
	return out, nil
}

// checkEngine reports every finding of rule over the engine's source.
func checkEngine(t *testing.T, rule func(checkedFile) []string) {
	files, err := engineFiles()
	if err != nil {
		t.Fatal(err)
	}
	for _, cf := range files {
		for _, finding := range rule(cf) {
			t.Error(finding)
		}
	}
}

// checkSeed runs rule over an in-memory file and returns the lines of
// its findings: the negative case that shows the rule can fail.
func checkSeed(t *testing.T, rule func(checkedFile) []string, src string) []int {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "seed.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	files, err := typeCheck(fset, importer.ForCompiler(fset, "source", nil), "seed", []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, finding := range rule(files[0]) {
		var line int
		fmt.Sscanf(strings.TrimPrefix(finding, "seed.go:"), "%d", &line)
		lines = append(lines, line)
	}
	return lines
}

func (cf checkedFile) finding(pos token.Pos, format string, args ...any) string {
	return fmt.Sprintf("%s: %s", cf.fset.Position(pos), fmt.Sprintf(format, args...))
}

// orderSelectedReturns flags a return of a non-constant value from
// inside a range over a map: Go randomises map order, so which entry
// is returned differs between processes. The goldens cannot see it
// when, as in query.Validate, no golden input has two entries that
// qualify.
func orderSelectedReturns(cf checkedFile) []string {
	var out []string
	ast.Inspect(cf.file, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := cf.info.Types[rs.X].Type.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // its returns leave the literal, not the range
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if tv := cf.info.Types[r]; tv.Value == nil && !tv.IsNil() {
						out = append(out, cf.finding(r.Pos(), "return of %s selected by map iteration order; range over sorted keys", types.ExprString(r)))
					}
				}
			}
			return true
		})
		return true
	})
	return out
}

// seededRand are the package-level math/rand functions that build a
// seeded generator instead of drawing from the process-global source.
var seededRand = []string{"New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8"}

// ambientInputs flags what a replay cannot reproduce: any import of
// time (virtual time is sim.Time; no engine package needs the host
// clock) and any draw from the global math/rand source, which Go seeds
// at random per process. Seeded *rand.Rand values and sim.RNG streams
// are the sanctioned randomness. The goldens catch such a draw on a
// path they run, but not on one they do not.
func ambientInputs(cf checkedFile) []string {
	var out []string
	for _, imp := range cf.file.Imports {
		if imp.Path.Value == `"time"` {
			out = append(out, cf.finding(imp.Pos(), "imports time; use virtual sim.Time"))
		}
	}
	ast.Inspect(cf.file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := cf.info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
			return true
		}
		if p := fn.Pkg().Path(); (p == "math/rand" || p == "math/rand/v2") && !slices.Contains(seededRand, fn.Name()) {
			out = append(out, cf.finding(sel.Pos(), "rand.%s draws from the global source; use a seeded *rand.Rand or a sim.RNG stream", fn.Name()))
		}
		return true
	})
	return out
}

func TestNoOrderSelectedReturn(t *testing.T) {
	const seed = `package seed

func firstBad(m map[string]int) (string, error) {
	for k, v := range m {
		if v < 0 {
			return k, nil
		}
	}
	for _, v := range m {
		if v == 0 {
			return "", nil
		}
	}
	return "", nil
}

func firstOf(s []string) string {
	for _, k := range s {
		return k
	}
	return ""
}
`
	if got := checkSeed(t, orderSelectedReturns, seed); !slices.Equal(got, []int{6}) {
		t.Fatalf("seed findings on lines %v, want [6]", got)
	}
	checkEngine(t, orderSelectedReturns)
}

func TestNoWallClockOrGlobalRand(t *testing.T) {
	const seed = `package seed

import (
	"math/rand"
	"time"
)

func draw(r *rand.Rand) int {
	_ = time.Duration(0)
	return rand.Intn(3) + rand.New(rand.NewSource(1)).Intn(3) + r.Intn(3)
}
`
	if got := checkSeed(t, ambientInputs, seed); !slices.Equal(got, []int{5, 10}) {
		t.Fatalf("seed findings on lines %v, want [5 10]", got)
	}
	checkEngine(t, ambientInputs)
}
