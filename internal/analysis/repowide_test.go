package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestRepoIsClean is the tier-1 determinism gate: the full multichecker
// over the whole module must produce zero unallowlisted diagnostics —
// the same check CI runs as `go run ./cmd/reprolint ./...`.
func TestRepoIsClean(t *testing.T) {
	pkgs, err := analysis.Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	var benchmark, xtest bool
	for _, p := range pkgs {
		benchmark = benchmark || p.Path == "repro/benchmark"
		xtest = xtest || strings.HasSuffix(p.Path, "_test")
		fs, err := analysis.RunPackage(p, analysis.All()...)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			t.Errorf("%s", f)
		}
	}
	// 50 packages when this was written; a much smaller set means the
	// pattern is dropping most of the module.
	if len(pkgs) < 40 {
		t.Errorf("loaded only %d packages", len(pkgs))
	}
	// benchmark/README.md promises that reprolint ./... lints the
	// nested benchmark module.
	if !benchmark {
		t.Error("repro/benchmark (a nested module) was not analyzed")
	}
	if !xtest {
		t.Error("no external test package was analyzed")
	}
}

// moduleRoot is the repository root; tests run in internal/analysis.
func moduleRoot(t *testing.T) string {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}
