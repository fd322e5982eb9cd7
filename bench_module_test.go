package scisparql

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets type-checks bench/, which is a module of its own
// (replace scisparql => ../) that the root ./... patterns neither build
// nor test although it links exported internal/ symbols: deleting or
// renaming one must fail here, not in the benchmark driver.
func TestBenchModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH; bench/ is not vetted")
	}
	if out, err := exec.Command(goTool, "vet", "-C", "bench", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go vet -C bench ./...: %v\n%s", err, out)
	}
}
