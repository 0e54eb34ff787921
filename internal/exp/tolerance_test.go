package exp

import (
	"math"
	"testing"

	"repro/internal/core"
)

// TestReadTolerance pins the bracket rule: the last grid point at or
// below the threshold before the first point above it, interpolated
// linearly in between, with a livelocked point above the threshold and
// a later pass marked rather than interpolated through. +Inf in
// slowdowns stands for a livelocked point.
func TestReadTolerance(t *testing.T) {
	grid := []float64{0, 1, 2, 4}
	ll := math.Inf(1)
	for _, tc := range []struct {
		name      string
		slowdowns []float64
		want      string
	}{
		{"crossing inside an interval", []float64{1, 1.05, 1.3, 2}, "1.20 (1–2)"},
		{"crossing at a grid point", []float64{1, 1.1, 1.3, 2}, "1.00 (1–2)"},
		{"first point above", []float64{1.2, 1.5, 2, 3}, "<0"},
		{"no crossing", []float64{1, 1.02, 1.05, 1.1}, ">4"},
		{"livelocked point", []float64{1, 1.05, ll, ll}, "1.00 (1–2)"},
		{"pass after a fail", []float64{1, 1.2, 1.05, 1.5}, "0.50 (0–1)*"},
		{"dip below the threshold", []float64{1, 0.95, 1.05, 1.3}, "2.40 (2–4)"},
	} {
		pts := make([]core.Point, len(grid))
		for i, s := range tc.slowdowns {
			pts[i] = core.Point{Value: grid[i], Slowdown: s, Livelocked: math.IsInf(s, 1)}
			if pts[i].Livelocked {
				pts[i].Slowdown = 0
			}
		}
		if got := readTolerance(grid, pts).cell(); got != tc.want {
			t.Errorf("%s: %v reads %q, want %q", tc.name, tc.slowdowns, got, tc.want)
		}
	}
}

// TestTolerancePlanAddsNoRun holds the table to what the paper's sweeps
// already measure: merged with Figs 5b, 6 and 7 its plan adds no spec.
func TestTolerancePlanAddsNoRun(t *testing.T) {
	o := quickOpts()
	sweeps, err := PlanFor([]string{"fig5b", "fig6", "fig7"}, o)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := PlanFor([]string{"fig5b", "fig6", "fig7", "tolerance"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Size() != sweeps.Size() {
		t.Errorf("tolerance adds %d specs to the o/g/L sweeps, want 0", merged.Size()-sweeps.Size())
	}
}

// TestToleranceQuick renders the table from a quick plan: one row per
// app, the most overhead-sensitive first.
func TestToleranceQuick(t *testing.T) {
	o := quickOpts()
	o.Apps = []string{"nowsort", "radix"}
	tab, err := runID("tolerance", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "Radix" || tab.Rows[1][0] != "NOW-sort" {
		t.Fatalf("rows = %v, want Radix then NOW-sort", tab.Rows)
	}
	if got := tab.Rows[1][2]; got != ">100" {
		t.Errorf("NOW-sort tol Δo = %q, want >100", got)
	}
}
