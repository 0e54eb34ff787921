package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// writeModule lays out a synthetic module under a temp dir.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	writeFiles(t, dir, files)
	return dir
}

func writeFiles(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestViolationsAreFindings demonstrates the acceptance criterion
// end-to-end through the module loader: introducing a time.Now() call
// in internal/sim, or a package-level cache map in internal/exp, makes
// the multichecker report findings (and so cmd/reprolint exit 1).
func TestViolationsAreFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module sample\n\ngo 1.22\n",
		"internal/sim/clock.go": `package sim

import "time"

func Stamp() time.Time { return time.Now() }
`,
		"internal/exp/cache.go": `package exp

var cache = map[string]int{}

func Lookup(k string) int { return cache[k] }
`,
	})
	rep, err := analysis.Run(dir, []string{"./..."}, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range rep.Findings {
		got = append(got, f.Analyzer)
	}
	if len(rep.Findings) != 2 {
		t.Fatalf("want exactly 2 findings (simwallclock, noglobalmut), got %d: %v", len(rep.Findings), rep.Findings)
	}
	if got[0] != "noglobalmut" && got[1] != "noglobalmut" {
		t.Errorf("missing noglobalmut finding in %v", got)
	}
	if got[0] != "simwallclock" && got[1] != "simwallclock" {
		t.Errorf("missing simwallclock finding in %v", got)
	}
}

// TestAllowDirectiveHygiene: a directive missing its reason, or naming
// an unknown analyzer, cannot silently suppress anything — it is
// itself reported.
func TestAllowDirectiveHygiene(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module sample\n\ngo 1.22\n",
		"internal/sim/clock.go": `package sim

import "time"

//lint:allow simwallclock
func Stamp() time.Time { return time.Now() }

//lint:allow wallclock typo in analyzer name
func Stamp2() time.Time { return time.Now() }
`,
	})
	rep, err := analysis.Run(dir, []string{"./..."}, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, f := range rep.Findings {
		counts[f.Analyzer]++
	}
	// Both time.Now calls still flagged (the reasonless directive is
	// ignored; the misnamed one covers nothing), plus two lintdirective
	// findings for the malformed directives themselves.
	if counts["simwallclock"] != 2 || counts["lintdirective"] != 2 {
		t.Errorf("want simwallclock=2 lintdirective=2, got %v", counts)
	}
	for _, f := range rep.Findings {
		if f.Analyzer == "lintdirective" && !strings.Contains(f.Message, "lint:allow") {
			t.Errorf("lintdirective message should explain the directive grammar: %s", f.Message)
		}
	}
}

// TestStaleDirectiveIsAFinding: a well-formed directive that suppresses
// nothing is itself reported, so dead allowlist entries cannot
// accumulate and mask future regressions at their line.
func TestStaleDirectiveIsAFinding(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module sample\n\ngo 1.22\n",
		"internal/sim/clock.go": `package sim

//lint:allow simwallclock nothing on this line reads the wall clock
func Stamp() int64 { return 42 }
`,
	})
	rep, err := analysis.Run(dir, []string{"./..."}, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Analyzer != "lintdirective" {
		t.Fatalf("want exactly 1 lintdirective finding, got %v", rep.Findings)
	}
	if !strings.Contains(rep.Findings[0].Message, "suppresses nothing") {
		t.Errorf("stale directive message should say so: %s", rep.Findings[0].Message)
	}
}

// TestMutationHotPathAlloc is the hot-path mutation check: injecting an
// allocation into a //repro:hotpath function produces a hotpathalloc
// finding, which makes cmd/reprolint exit 1.
func TestMutationHotPathAlloc(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module sample\n\ngo 1.22\n",
		"internal/sim/heap.go": `package sim

type heap struct{ a []int }

//repro:hotpath
func (h *heap) pop() int {
	scratch := make([]int, 1) // injected allocation
	v := h.a[len(h.a)-1]
	h.a = h.a[:len(h.a)-1]
	return v + scratch[0]
}
`,
	})
	rep, err := analysis.Run(dir, []string{"./..."}, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Analyzer != "hotpathalloc" {
		t.Fatalf("want exactly 1 hotpathalloc finding, got %v", rep.Findings)
	}
	if !strings.Contains(rep.Findings[0].Message, "make allocates") {
		t.Errorf("finding should name the injected make: %s", rep.Findings[0].Message)
	}
}

// TestLoadPackageSet pins which packages the go-list loader analyzes:
// a package with in-package tests loads once, with its _test.go files;
// an external test package loads as its own "_test" package and sees
// export_test.go declarations; a module nested under ./... is listed
// in its own module; testdata is skipped. A package that does not
// compile then stops the run with an error naming it.
func TestLoadPackageSet(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module sample\n\ngo 1.22\n",
		"internal/sim/sim.go": `package sim

func now() int64 { return 0 }
`,
		"internal/sim/sim_test.go": `package sim

import "testing"

func TestNow(t *testing.T) { _ = now() }
`,
		"internal/sim/export_test.go": `package sim

var Now = now
`,
		"internal/sim/ext_test.go": `package sim_test

import (
	"testing"

	"sample/internal/sim"
)

func TestExported(t *testing.T) { _ = sim.Now() }
`,
		"internal/sim/testdata/go.mod": "module fixture\n\ngo 1.22\n",
		"internal/sim/testdata/fixture.go": `package fixture

func broken() int { return "not checked" }
`,
		"nested/go.mod": "module sample/nested\n\ngo 1.22\n",
		"nested/nested.go": `package nested

func F() {}
`,
	})
	pkgs, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	files := map[string]int{}
	for _, p := range pkgs {
		got = append(got, p.Path)
		files[p.Path] = len(p.Files)
	}
	want := []string{"sample/internal/sim", "sample/internal/sim_test", "sample/nested"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("analyzed %v, want %v", got, want)
	}
	if files["sample/internal/sim"] != 3 || files["sample/internal/sim_test"] != 1 {
		t.Errorf("file counts %v: want 3 in sim (with its tests), 1 in sim_test", files)
	}

	writeFiles(t, dir, map[string]string{
		"internal/exp/bad.go": "package exp\n\nfunc G() int { return \"x\" }\n",
		// internal/a sorts first and cannot load without exp.
		"internal/a/a.go": "package a\n\nimport \"sample/internal/exp\"\n\nvar _ = exp.G\n",
	})
	_, err = analysis.Run(dir, []string{"./..."}, analysis.All())
	if err == nil || !strings.HasPrefix(err.Error(), "sample/internal/exp:") || !strings.Contains(err.Error(), "cannot use") {
		t.Fatalf("want the compile error of sample/internal/exp, got %v", err)
	}
}

// TestScopeMatching pins the segment semantics the scoped analyzers
// rely on: prefixes match whole path segments, not substrings.
func TestScopeMatching(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module sample\n\ngo 1.22\n",
		// internal/simx is NOT a simulation package despite the prefix.
		"internal/simx/clock.go": `package simx

import "time"

func Stamp() time.Time { return time.Now() }
`,
		// Subpackages of a scoped tree are in scope.
		"internal/sim/inner/clock.go": `package inner

import "time"

func Stamp() time.Time { return time.Now() }
`,
	})
	rep, err := analysis.Run(dir, []string{"./..."}, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("want exactly 1 finding (internal/sim/inner only), got %v", rep.Findings)
	}
	if !strings.Contains(rep.Findings[0].Pos.Filename, filepath.Join("sim", "inner")) {
		t.Errorf("finding attributed to the wrong package: %v", rep.Findings[0])
	}
}
