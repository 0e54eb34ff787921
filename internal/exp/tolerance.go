package exp

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/run"
)

// toleranceFactor is the slowdown threshold behind the tolerance table:
// an app absorbs a delta while its measured run time stays within this
// multiple of the baseline.
const toleranceFactor = 1.1

// toleranceSweeps are the measured sweeps the table reads (Figs 5b, 6
// and 7), one per knob.
var toleranceSweeps = []sweep{overheadSweep, gapSweep, latencySweep}

// tolerancePlan lists the Δo, Δg and ΔL sweeps at the options' cluster
// size. They are exactly the fig5b/fig6/fig7 specs, so a merged plan
// adds no run.
func tolerancePlan(o Options, sel []apps.App) []run.Spec {
	var specs []run.Spec
	for _, w := range toleranceSweeps {
		specs = append(specs, w.specs(o, sel)...)
	}
	return specs
}

// tolBracket is one knob's tolerance read off a measured sweep: the
// last grid point with slowdown ≤ toleranceFactor before the first one
// above it, that first point, and the linear interpolation between them.
type tolBracket struct {
	lo, hi float64 // the bracket's grid points
	tol    float64 // interpolated crossing; ±Inf when the grid brackets none
	// relapse marks a point at or below the threshold past hi: slowdown
	// is not monotone there, and the bracket is the first crossing.
	relapse bool
}

// readTolerance brackets the first crossing of toleranceFactor in a
// sweep's points (pts[i] measured at grid[i]). A livelocked point counts
// as above the threshold; it has no slowdown to interpolate toward, so
// a bracket it closes reads its lower end. No crossing is +Inf (beyond
// the grid); a first point already above is -Inf (before it).
func readTolerance(grid []float64, pts []core.Point) tolBracket {
	above := func(p core.Point) bool { return p.Livelocked || p.Slowdown > toleranceFactor }
	for i, p := range pts {
		if !above(p) {
			continue
		}
		b := tolBracket{lo: grid[i], hi: grid[i], tol: math.Inf(-1)}
		for _, q := range pts[i+1:] {
			b.relapse = b.relapse || !above(q)
		}
		if i == 0 {
			return b
		}
		b.lo, b.tol = grid[i-1], grid[i-1]
		if !p.Livelocked {
			prev := pts[i-1].Slowdown
			b.tol += (toleranceFactor - prev) / (p.Slowdown - prev) * (b.hi - b.lo)
		}
		return b
	}
	last := grid[len(grid)-1]
	return tolBracket{lo: last, hi: last, tol: math.Inf(1)}
}

// cell renders the bracket: "0.22 (0–1)", ">100" past the grid, "<0"
// before it, and a trailing "*" on a relapse.
func (b tolBracket) cell() string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var s string
	switch {
	case math.IsInf(b.tol, 1):
		s = ">" + g(b.hi)
	case math.IsInf(b.tol, -1):
		s = "<" + g(b.hi)
	default:
		s = fmt.Sprintf("%s (%s–%s)", f2(b.tol), g(b.lo), g(b.hi))
	}
	if b.relapse {
		s += "*"
	}
	return s
}

// toleranceRender reads each app's tolerance to Δo, Δg and ΔL off the
// measured sweeps, most overhead-sensitive app (smallest Δo) first.
func toleranceRender(o Options, sel []apps.App, st *run.Store) (*Table, error) {
	type row struct {
		cells []string
		rank  float64
		name  string
	}
	rows := make([]row, 0, len(sel))
	relapses := false
	for _, a := range sel {
		res, err := st.Result(o.baselineSpec(a, o.Procs))
		if err != nil {
			return nil, err
		}
		r := row{name: a.Name(), cells: []string{a.PaperName(), secs(res.Elapsed.Seconds())}}
		for i, w := range toleranceSweeps {
			grid := o.sweepPoints(w.points)
			pts := make([]core.Point, len(grid))
			for j, v := range grid {
				if pts[j], err = st.Point(o.sweepSpec(a, o.Procs, w.knob, v)); err != nil {
					return nil, err
				}
			}
			b := readTolerance(grid, pts)
			if i == 0 {
				r.rank = b.tol
			}
			relapses = relapses || b.relapse
			r.cells = append(r.cells, b.cell())
		}
		rows = append(rows, r)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].rank != rows[j].rank {
			return rows[i].rank < rows[j].rank
		}
		return rows[i].name < rows[j].name
	})
	t := &Table{ID: "tolerance", Title: "Tolerance to added o, g and L, read off the measured sweeps"}
	t.Columns = []string{"app", "base(s)", "tol Δo(µs)", "tol Δg(µs)", "tol ΔL(µs)"}
	for _, r := range rows {
		t.Rows = append(t.Rows, r.cells)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("tol: largest added delta with measured slowdown ≤ %.1f×, interpolated linearly inside its bracket; %d nodes, scale %.4g", toleranceFactor, o.Procs, o.Scale),
		"(a–b): the last grid point ≤ the threshold and the first above it (Figs 5b, 6, 7); exact if slowdown is monotone, which bounds the interpolation",
		">x: no grid point up to x exceeded the threshold; a livelocked point counts as exceeding it; apps ranked most overhead-sensitive first")
	if relapses {
		t.Notes = append(t.Notes, "*: a grid point past the bracket reads ≤ the threshold again; slowdown is not monotone there, and the bracket is the first crossing")
	}
	return t, nil
}
