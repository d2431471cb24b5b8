// The test that keeps perfbench/, the repository's one performance
// benchmark, compiling. The paper's figures are produced by
// cmd/rjoin-experiments (shape assertions in internal/experiments);
// per-layer timings by perfbench.
package rjoin

import (
	"os"
	"os/exec"
	"testing"
)

// TestPerfbenchVets is the tier-1 gate on the benchmark: perfbench/ is
// a module of its own that imports rjoin/internal/*, so `go build ./...`
// and `go test ./...` here never compile it, and a rename it depends on
// would otherwise surface only when the benchmark is next run.
func TestPerfbenchVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "perfbench"
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=-buildvcs=false")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in perfbench/: %v\n%s", err, out)
	}
}
