package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// tally is what the count mode measures of a package or a tree.
type tally struct{ loc, testLoc, exported, flags int }

func (t *tally) add(u tally) {
	t.loc += u.loc
	t.testLoc += u.testLoc
	t.exported += u.exported
	t.flags += u.flags
}

// flagDefs are the flag package's functions that define a flag.
var flagDefs = strings.Fields("Bool BoolVar BoolFunc Duration DurationVar Float64 Float64Var Func " +
	"Int IntVar Int64 Int64Var String StringVar TextVar Uint UintVar Uint64 Uint64Var Var")

// count writes one line per package under root, skip excepted, then the
// totals.
func count(w io.Writer, root string, skip []string) error {
	var total tally
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		name := d.Name()
		if rel != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			slices.Contains(skip, filepath.ToSlash(rel)) || exists(filepath.Join(path, "go.mod"))) {
			return filepath.SkipDir
		}
		t, n, err := countDir(path)
		if err != nil || n == 0 {
			return err
		}
		fmt.Fprintf(w, "%-40s loc %6d  test_loc %6d  exported %4d\n", filepath.ToSlash(rel), t.loc, t.testLoc, t.exported)
		total.add(t)
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "total loc %d test_loc %d exported %d flags %d\n", total.loc, total.testLoc, total.exported, total.flags)
	return nil
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// countDir tallies the Go files of one directory and returns how many
// there were.
func countDir(dir string) (tally, int, error) {
	var t tally
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return t, 0, err
		}
		lines := fset.File(f.Pos()).LineCount()
		if strings.HasSuffix(path, "_test.go") {
			t.testLoc += lines
			continue
		}
		t.loc += lines
		t.exported += exportedNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && slices.Contains(flagDefs, sel.Sel.Name) {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" {
						t.flags++
					}
				}
			}
			return true
		})
	}
	return t, len(files), nil
}

// exportedNames counts a file's exported funcs, methods of exported
// types, types, consts and vars.
func exportedNames(f *ast.File) int {
	n := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && exportedReceiver(d) {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						n++
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
}
