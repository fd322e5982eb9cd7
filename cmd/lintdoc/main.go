// Command lintdoc enforces the repository's documentation bar: every
// exported identifier in the packages it is pointed at must carry a
// doc comment. It is a vendored, dependency-free stand-in for the
// usual doc linters so CI can fail on undocumented API.
//
// Usage:
//
//	lintdoc DIR [DIR...]
//	lintdoc count ROOT [SKIP...]
//
// Each DIR is scanned non-recursively; _test.go files are ignored.
// Exit status is 1 if any exported identifier lacks a doc comment.
//
// The count mode measures the code's surface instead, so that a change
// can report it before and after: every package under ROOT, less the
// SKIP directories (relative to ROOT), testdata and nested modules, with
// its non-test lines, test lines and exported symbols (funcs, methods of
// exported types, types, consts and vars), then the totals and the
// command-line flags defined through the flag package.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: lintdoc DIR [DIR...]")
		os.Exit(2)
	}
	if os.Args[1] == "count" {
		if len(os.Args) < 3 {
			fmt.Fprintln(os.Stderr, "usage: lintdoc count ROOT [SKIP...]")
			os.Exit(2)
		}
		if err := count(os.Stdout, os.Args[2], os.Args[3:]); err != nil {
			fmt.Fprintf(os.Stderr, "lintdoc: %v\n", err)
			os.Exit(2)
		}
		return
	}
	var problems []string
	for _, dir := range os.Args[1:] {
		ps, err := lintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lintdoc: %s: %v\n", dir, err)
			os.Exit(2)
		}
		problems = append(problems, ps...)
	}
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "lintdoc: %d exported identifier(s) without doc comments\n", len(problems))
		os.Exit(1)
	}
}

// lintDir parses every non-test Go file in dir and returns one line
// per undocumented exported identifier.
func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			filepath.ToSlash(p.Filename), p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Name, "_test") || pkg.Name == "main" {
			// Commands document themselves through the package comment;
			// their internals are not API.
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !exportedReceiver(d) {
						continue
					}
					if d.Doc == nil {
						kind := "function"
						if d.Recv != nil {
							kind = "method"
						}
						report(d.Pos(), kind, funcName(d))
					}
				case *ast.GenDecl:
					lintGenDecl(d, report)
				}
			}
		}
	}
	return out, nil
}

// lintGenDecl checks type, const and var declarations. A doc comment
// on the grouped declaration covers all of its specs; otherwise each
// exported spec needs its own.
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	kind := map[token.Token]string{
		token.TYPE:  "type",
		token.CONST: "const",
		token.VAR:   "var",
	}[d.Tok]
	if kind == "" {
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), kind, s.Name.Name)
			}
		case *ast.ValueSpec:
			// In a grouped const/var block, a block-level comment or a
			// per-spec comment (before or trailing) is enough.
			if d.Doc != nil || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					report(n.Pos(), kind, n.Name)
				}
			}
		}
	}
}

// exportedReceiver reports whether a method's receiver type is
// exported (methods on unexported types are not public API). Plain
// functions return true.
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true
		}
	}
}

// funcName renders Recv.Name for methods, plain Name otherwise.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if se, ok := t.(*ast.StarExpr); ok {
		t = se.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}
