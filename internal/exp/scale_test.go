package exp

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/scalekern"
	"repro/internal/apps/suite"
)

// TestScaleQuick exercises the weak-scaling experiment end to end on
// its CI ladder (anchor, 1k, 10k): one row per kernel and rung, the
// first rung of each kernel anchoring the knob ordering and every
// later rung judged against it.
func TestScaleQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 10k-processor simulations")
	}
	o := quickOpts()
	o.Apps = []string{"scale-pray"}
	tab, err := runID("scale", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (1 kernel x 3 rungs)", len(tab.Rows))
	}
	verdictCol := len(tab.Columns) - 1
	orderCol := verdictCol - 1
	if got := tab.Rows[0][verdictCol]; got != "anchor" {
		t.Errorf("first rung verdict = %q, want anchor", got)
	}
	for i, row := range tab.Rows {
		order := row[orderCol]
		if strings.Count(order, ">") != 2 {
			t.Errorf("row %d order = %q, want a full o/g/L ranking", i, order)
		}
		if i > 0 {
			if v := row[verdictCol]; v != "holds" && v != "differs" {
				t.Errorf("row %d verdict = %q, want holds or differs", i, v)
			}
		}
	}
}

// TestSeedZeroIsSeedOne is why run.Spec normalizes seed 0 to 1: every
// application ResolveApp knows runs seed 0 as the same simulation as
// seed 1, so the two must share one cache address.
func TestSeedZeroIsSeedOne(t *testing.T) {
	for _, name := range append(suite.Names(), scalekern.Names()...) {
		t.Run(name, func(t *testing.T) {
			a, err := ResolveApp(name)
			if err != nil {
				t.Fatal(err)
			}
			var res [2]apps.Result
			for seed := range res {
				if res[seed], err = a.Run(apps.Config{Procs: 4, Scale: 0.0001, Seed: int64(seed)}); err != nil {
					t.Fatal(err)
				}
			}
			if res[0].Elapsed != res[1].Elapsed || !reflect.DeepEqual(res[0].Stats, res[1].Stats) {
				t.Errorf("seed 0 ran %v, seed 1 ran %v", res[0].Elapsed, res[1].Elapsed)
			}
		})
	}
}

// TestScaleDeterminismAcrossJobs extends the byte-identity invariant
// to the scale table at its deepest CI rung: a 10k-processor
// continuation-runtime run must render identically on one worker and
// on eight — the engine-driven runtime leaves no room for host
// scheduling to leak into virtual time.
func TestScaleDeterminismAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 10k-processor simulations twice")
	}
	o := quickOpts()
	o.Apps = []string{"scale-pray"}
	render := func(jobs int) string {
		o := o
		o.Jobs = jobs
		tab, err := runID("scale", o)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return tab.Text()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("scale table differs between jobs=1 and jobs=8:\n--- jobs=1\n%s--- jobs=8\n%s", serial, parallel)
	}
}
