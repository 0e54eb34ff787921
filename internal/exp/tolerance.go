package exp

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/tolerance"
)

// toleranceFactor is the slowdown threshold behind the per-app tolerance
// figures: the largest delta an app absorbs before its predicted run
// time exceeds this multiple of the baseline.
const toleranceFactor = tolerance.DefaultFactor

// toleranceAxes pairs each analytic curve axis with the machine knob and
// sweep grid it cross-validates against.
var toleranceAxes = []struct {
	axis   string
	knob   core.Knob
	points []float64
}{
	{"o", core.KnobO, overheadPoints},
	{"g", core.KnobG, gapPoints},
	{"L", core.KnobL, latencyPoints},
}

// tolerancePlan declares one instrumented baseline per app (the single
// run the analytic curves come from) plus the measured o/g/L sweeps the
// predictions are validated against. The measured sweeps are exactly
// the fig5b/fig6/fig7 specs, so a merged plan shares those runs.
func tolerancePlan(o Options) (*run.Plan, error) {
	o = o.Norm()
	sel, err := selectedApps(o)
	if err != nil {
		return nil, err
	}
	p := run.NewPlan()
	for _, a := range sel {
		inst := o.baselineSpec(a, o.Procs)
		inst.Depgraph = true
		p.AddSweep(inst, o.Verify)
		for _, ax := range toleranceAxes {
			for _, v := range o.sweepPoints(ax.points) {
				p.AddSweep(o.sweepSpec(a, o.Procs, ax.knob, v), o.Verify)
			}
		}
	}
	return p, nil
}

// toleranceRender cross-validates the analytic curves against the
// measured sweeps and renders the per-app error and tolerance table,
// most-sensitive app (smallest overhead tolerance) first.
func toleranceRender(o Options, st *run.Store) (*Table, error) {
	o = o.Norm()
	sel, err := selectedApps(o)
	if err != nil {
		return nil, err
	}
	type row struct {
		cells []string
		rank  sim.Time
		name  string
	}
	rows := make([]row, 0, len(sel))
	within := 0
	validated := 0
	for _, a := range sel {
		inst := o.baselineSpec(a, o.Procs)
		inst.Depgraph = true
		res, err := st.Result(inst)
		if err != nil {
			return nil, err
		}
		r := row{name: a.Name(), rank: tolerance.MaxDelta + 1}
		r.cells = []string{a.PaperName(), secs(res.Elapsed.Seconds())}
		if res.Curves == nil {
			for range toleranceAxes {
				r.cells = append(r.cells, "—")
			}
			r.cells = append(r.cells, "—", "—", "—")
			rows = append(rows, row{cells: r.cells, rank: r.rank, name: r.name})
			continue
		}
		validated++
		ok5 := true
		var tols []string
		for _, ax := range toleranceAxes {
			c, _ := res.Curves.ByAxis(ax.axis)
			maxErr, n := 0.0, 0
			for _, v := range o.sweepPoints(ax.points) {
				pt, err := st.Point(o.sweepSpec(a, o.Procs, ax.knob, v))
				if err != nil {
					return nil, err
				}
				if pt.Livelocked {
					continue
				}
				pred := c.Eval(sim.FromMicros(v))
				e := 100 * abs(pred.Seconds()-pt.Elapsed.Seconds()) / pt.Elapsed.Seconds()
				if e > maxErr {
					maxErr = e
				}
				n++
			}
			if n == 0 {
				r.cells = append(r.cells, "N/A")
			} else {
				r.cells = append(r.cells, f1(maxErr)+"%")
				if maxErr > 5 {
					ok5 = false
				}
			}
			tol, bounded := c.Tolerance(toleranceFactor)
			if !bounded {
				tols = append(tols, fmt.Sprintf(">%s", f1(tolerance.MaxDelta.Micros())))
			} else {
				tols = append(tols, f1(tol.Micros()))
			}
			if ax.axis == "o" && bounded {
				r.rank = tol
			}
		}
		if ok5 {
			within++
		}
		r.cells = append(r.cells, tols...)
		rows = append(rows, r)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].rank != rows[j].rank {
			return rows[i].rank < rows[j].rank
		}
		return rows[i].name < rows[j].name
	})
	t := &Table{ID: "tolerance", Title: "Analytic sensitivity curves from one instrumented run"}
	t.Columns = []string{"app", "base(s)", "err(Δo)", "err(Δg)", "err(ΔL)", "tol Δo(µs)", "tol Δg(µs)", "tol ΔL(µs)"}
	for _, r := range rows {
		t.Rows = append(t.Rows, r.cells)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("err: max |analytic − measured|/measured over the swept points of that knob; %d nodes, scale %.4g", o.Procs, o.Scale),
		fmt.Sprintf("tol: largest delta with predicted slowdown ≤ %.1f× (analysis domain %s µs); apps ranked most overhead-sensitive first", toleranceFactor, f1(tolerance.MaxDelta.Micros())),
		fmt.Sprintf("%d/%d apps within 5%% on every measured point; curves from %d instrumented baseline runs", within, len(sel), validated),
		"N/A: every measured point exceeded the livelock limit; —: run outside the model's validity region (see DESIGN.md §14)")
	return t, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
