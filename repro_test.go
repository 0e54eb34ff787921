package repro_test

import (
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro"
)

func TestPublicQuickstart(t *testing.T) {
	w, err := repro.NewWorld(4, repro.NOW(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var shared [4]repro.GPtr
	err = w.Run(func(p *repro.Proc) {
		shared[p.ID()] = p.Alloc(1)
		p.Barrier()
		right := (p.ID() + 1) % p.P()
		p.WriteWord(shared[right], uint64(100+p.ID()))
		p.Barrier()
		left := (p.ID() - 1 + p.P()) % p.P()
		if got := p.ReadWord(shared[p.ID()]); got != uint64(100+left) {
			t.Errorf("proc %d read %d", p.ID(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Elapsed() == 0 {
		t.Error("no virtual time elapsed")
	}
}

func TestPublicCalibrate(t *testing.T) {
	c, err := repro.Calibrate(repro.NOW())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.O.Micros()-2.9) > 0.2 {
		t.Errorf("o = %v", c.O.Micros())
	}
}

func TestPublicSuite(t *testing.T) {
	if got := len(repro.Suite()); got != 10 {
		t.Errorf("suite has %d apps, want 10", got)
	}
	a, err := repro.AppByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(repro.AppConfig{Procs: 4, Scale: 0.0003, Seed: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("radix not verified")
	}
	if _, err := repro.AppByName("bogus"); err == nil {
		t.Error("AppByName accepted bogus name")
	}
}

func TestPublicExperiment(t *testing.T) {
	if got := len(repro.Experiments()); got != 21 {
		t.Errorf("%d experiments, want 21", got)
	}
	tab, err := repro.RunExperiment("table1", repro.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.Text(), "Berkeley NOW") {
		t.Errorf("table1 text missing NOW row:\n%s", tab.Text())
	}
	if _, err := repro.RunExperiment("bogus", repro.Options{}); err == nil {
		t.Error("RunExperiment accepted bogus id")
	}
}

// TestPublicPlanPipeline exercises the declarative path end to end: one
// merged plan for two artifacts sharing their sweep runs, executed once,
// rendered twice.
func TestPublicPlanPipeline(t *testing.T) {
	opts := repro.Options{Procs: 8, Scale: 1.0 / 2048, Seed: 1, Quick: true,
		Apps: []string{"radix", "nowsort"}, Jobs: 4}
	plan, err := repro.PlanExperiments([]string{"fig5b", "table5"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Size() == 0 || plan.Adds() <= plan.Size() {
		t.Fatalf("merged plan: %d unique of %d declared, want sharing", plan.Size(), plan.Adds())
	}
	store := repro.NewRunStore()
	var runs int
	runner := repro.NewRunner(opts, func(p repro.RunProgress) { runs++ })
	if err := runner.RunInto(store, plan); err != nil {
		t.Fatal(err)
	}
	if runs != plan.Size() {
		t.Errorf("progress saw %d runs, want %d", runs, plan.Size())
	}
	for _, id := range []string{"fig5b", "table5"} {
		tab, err := repro.RenderExperiment(id, opts, store)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
	}
	executed, _ := store.Stats()
	if executed != plan.Size() {
		t.Errorf("store executed %d, want %d", executed, plan.Size())
	}
}

func TestPresetsDiffer(t *testing.T) {
	if repro.NOW() == repro.Paragon() || repro.NOW() == repro.Meiko() {
		t.Error("presets should differ")
	}
	if repro.LAN().DeltaO != repro.FromMicros(100) {
		t.Error("LAN preset should add 100µs overhead")
	}
}

// docPath matches a repository path as the docs and CI spell one,
// rooted at a top-level source or artifact directory; the ./cmd/X of a
// `go run` line and the internal/x of an import path match too.
var docPath = regexp.MustCompile(`(?:^|[^A-Za-z0-9_-])((?:cmd|internal|results|examples|benchmark)/[A-Za-z0-9_./*{}<>,-]+)`)

// TestDocsNameExistingPaths keeps the living documents and CI honest
// across deletions: every path they name must exist in the tree.
// Globs, brace sets, "..." and <placeholders> are skipped. ROADMAP.md
// and CHANGES.md are history and benchmark/README.md belongs to the
// frozen benchmark; none of the three is checked.
func TestDocsNameExistingPaths(t *testing.T) {
	for _, doc := range []string{
		"README.md",
		"DESIGN.md",
		"EXPERIMENTS.md",
		".github/workflows/ci.yml",
		".claude/skills/verify/SKILL.md",
	} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range docPath.FindAllStringSubmatch(line, -1) {
				p := strings.TrimRight(m[1], ".,-/")
				if strings.ContainsAny(p, "*{}<>,") || strings.Contains(p, "...") {
					continue
				}
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s:%d names %s, which does not exist", doc, i+1, p)
				}
			}
		}
	}
}
