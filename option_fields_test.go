package rjoin

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// optionStructs are the public configuration structs of rjoin.go.
var optionStructs = []string{"Options", "TraceOptions", "MetricsOptions", "ProfileOptions", "FaultOptions", "FaultPartition", "ChurnOptions"}

// TestEveryOptionFieldIsSet holds the rule of DESIGN.md "Options audit":
// a configuration field exists only while a caller sets it. Every
// exported field of optionStructs must be a composite-literal key or an
// assignment target in some Go file of the repository other than
// rjoin.go — tests, cmd/, examples/ and perfbench/ count. Fields are
// resolved by type, so overlay.Faults{DropProb: …} does not set
// FaultOptions.DropProb. A field nothing sets only multiplies the
// option matrix; delete it and make its default the code.
func TestEveryOptionFieldIsSet(t *testing.T) {
	set := map[string]bool{} // "Struct.Field"
	fields := map[string][]string{}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		} else if err != nil {
			return err
		}
		path := "rjoin"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		units := []struct {
			path    string
			files   []string
			imports []string
		}{
			{path, append(slices.Clone(bp.GoFiles), bp.TestGoFiles...), append(slices.Clone(bp.Imports), bp.TestImports...)},
			{path + "_test", bp.XTestGoFiles, bp.XTestImports},
		}
		for _, u := range units {
			if len(u.files) == 0 || u.path != "rjoin" && !slices.Contains(u.imports, "rjoin") {
				continue
			}
			var files []*ast.File
			for _, name := range u.files {
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
				if err != nil {
					return err
				}
				files = append(files, f)
			}
			info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
			pkg, err := (&types.Config{Importer: imp}).Check(u.path, fset, files, info)
			if err != nil {
				return err
			}
			if u.path == "rjoin" {
				for _, name := range optionStructs {
					st := pkg.Scope().Lookup(name).Type().Underlying().(*types.Struct)
					for i := 0; i < st.NumFields(); i++ {
						if f := st.Field(i); f.Exported() {
							fields[name] = append(fields[name], f.Name())
						}
					}
				}
			}
			for _, f := range files {
				if fset.Position(f.Pos()).Filename == "rjoin.go" {
					continue
				}
				for _, s := range fieldsSetIn(f, info) {
					set[s] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range optionStructs {
		for _, f := range fields[name] {
			if !set[name+"."+f] {
				t.Errorf("%s.%s is set by no caller outside rjoin.go; delete it and make its default the code", name, f)
			}
		}
	}
}

// fieldsSetIn returns, as "Struct.Field", every field of an rjoin
// option struct that f names as a composite-literal key (or fills
// positionally) or assigns to.
func fieldsSetIn(f *ast.File, info *types.Info) []string {
	var out []string
	assigned := func(x ast.Expr) {
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return
		}
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return
		}
		t := s.Recv()
		idx := s.Index()
		for _, i := range idx[:len(idx)-1] {
			t = structOf(t).Field(i).Type()
		}
		if name, ok := optionStruct(t); ok {
			out = append(out, name+"."+s.Obj().Name())
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			name, ok := optionStruct(info.Types[n].Type)
			if !ok {
				return true
			}
			st := structOf(info.Types[n].Type)
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					out = append(out, name+"."+kv.Key.(*ast.Ident).Name)
				} else {
					out = append(out, name+"."+st.Field(i).Name())
				}
			}
		case *ast.AssignStmt:
			for _, x := range n.Lhs {
				assigned(x)
			}
		case *ast.IncDecStmt:
			assigned(n.X)
		}
		return true
	})
	return out
}

// optionStruct reports whether t (or what it points to) is one of the
// rjoin option structs, and which.
func optionStruct(t types.Type) (string, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "rjoin" || !slices.Contains(optionStructs, n.Obj().Name()) {
		return "", false
	}
	return n.Obj().Name(), true
}

// structOf returns the struct underlying t or the type t points to.
func structOf(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.Underlying().(*types.Struct)
}
