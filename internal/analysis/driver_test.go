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
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
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

// TestRunJobsMatchesSequential pins the parallel driver's determinism:
// the merged, sorted report is identical at any worker count.
func TestRunJobsMatchesSequential(t *testing.T) {
	files := map[string]string{"go.mod": "module sample\n\ngo 1.22\n"}
	for _, p := range []string{"a", "b", "c", "d"} {
		files["internal/sim/"+p+"/"+p+".go"] = `package ` + p + `

import "time"

func Stamp() time.Time { return time.Now() }
`
	}
	dir := writeModule(t, files)
	seq, err := analysis.Run(dir, []string{"./..."}, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 3, 8} {
		par, err := analysis.RunJobs(dir, []string{"./..."}, analysis.All(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if par.Packages != seq.Packages {
			t.Errorf("jobs=%d: %d packages, sequential saw %d", jobs, par.Packages, seq.Packages)
		}
		if len(par.Findings) != len(seq.Findings) {
			t.Fatalf("jobs=%d: %d findings, sequential saw %d", jobs, len(par.Findings), len(seq.Findings))
		}
		for i := range par.Findings {
			if par.Findings[i] != seq.Findings[i] {
				t.Errorf("jobs=%d: finding %d differs: %v vs %v", jobs, i, par.Findings[i], seq.Findings[i])
			}
		}
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
