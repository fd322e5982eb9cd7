package scisparql

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// goldenExamples are the example programs whose output is deterministic;
// testdata/examples/NAME.golden holds what each prints. The others print
// timings, temporary paths or ports, so only their exit status counts.
var goldenExamples = map[string]bool{
	"bistab": true, "datacube": true, "geogrid": true, "quickstart": true, "relmediator": true,
}

// TestExamplesRun builds every program under examples/ in one go build
// and runs each: all must exit 0, and the deterministic ones must print
// exactly their golden output.
func TestExamplesRun(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH; the examples are not run")
	}
	bin := t.TempDir()
	if out, err := exec.Command(goTool, "build", "-o", bin, "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, filepath.Join(bin, name))
			cmd.Dir = t.TempDir()
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			if !goldenExamples[name] {
				return
			}
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("%s printed\n%s\nwant\n%s", name, out, want)
			}
		})
	}
}
