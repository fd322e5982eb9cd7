package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCountTree: the count mode tallies every package under the root
// but the skipped ones, testdata and nested modules, and counts exported
// symbols and flag definitions by the rules its doc gives.
func TestCountTree(t *testing.T) {
	root := t.TempDir()
	write := func(path, src string) {
		t.Helper()
		path = filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module m\n")
	write("a/a.go", "package a\n\ntype T int\n\nfunc (T) M() {}\n\ntype u int\n\nfunc (u) N() {}\n\nconst C, d = 1, 2\n\nvar V int\n\nfunc F() {}\n")
	write("a/a_test.go", "package a\n\nfunc TestX() {}\n")
	write("cmd/c/main.go", "package main\n\nimport \"flag\"\n\nvar x = flag.Int(\"x\", 0, \"\")\n\nfunc main() {\n\tflag.StringVar(new(string), \"s\", \"\", \"\")\n\tflag.Parse()\n}\n")
	write("a/testdata/t.go", "package t\n\nfunc G() {}\n")
	write("skipped/s.go", "package s\n\nfunc H() {}\n")
	write("nested/go.mod", "module n\n")
	write("nested/n.go", "package n\n\nfunc I() {}\n")
	var out strings.Builder
	if err := count(&out, root, []string{"skipped"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// a.go: 15 lines; T, T.M, C, V, F exported (u.N and d not).
	// main.go: 10 lines, two flags.
	if want := "total loc 25 test_loc 3 exported 5 flags 2"; lines[len(lines)-1] != want {
		t.Errorf("count printed\n%s\nwant the last line %q", out.String(), want)
	}
	if len(lines) != 3 {
		t.Errorf("count printed %d lines, want two packages and a total:\n%s", len(lines), out.String())
	}
}
