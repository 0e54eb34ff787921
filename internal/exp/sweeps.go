package exp

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/run"
	"repro/internal/sim"
)

// Paper sweep points (the added amount, in µs, or the bandwidth cap in
// MB/s for the bulk-gap sweep).
var (
	overheadPoints = []float64{0, 1, 2, 4, 5, 10, 20, 50, 100}
	gapPoints      = []float64{0, 2.2, 4.2, 9.2, 24.2, 49.2, 74.2, 99.2}
	latencyPoints  = []float64{0, 2.5, 5, 10, 25, 50, 75, 100}
	bulkBWPoints   = []float64{38, 35, 30, 25, 20, 15, 10, 5, 2, 1}
)

func quickTrim(points []float64) []float64 {
	return []float64{points[0], points[len(points)/2], points[len(points)-1]}
}

func (o Options) sweepPoints(points []float64) []float64 {
	if o.Quick {
		return quickTrim(points)
	}
	return points
}

// baselineSpec is the canonical unmodified-machine run for an app under
// these options.
func (o Options) baselineSpec(a apps.App, procs int) run.Spec {
	return run.Baseline(a.Name(), procs, o.Scale, o.Seed, o.Verify)
}

// sweepSpec is the canonical design-point run for an app under these
// options.
func (o Options) sweepSpec(a apps.App, procs int, k core.Knob, v float64) run.Spec {
	return run.Spec{App: a.Name(), Procs: procs, Scale: o.Scale, Seed: o.Seed, Knob: k, Value: v}
}

// slowdownPlan declares the run matrix of one Figure 5–8 sweep: a
// baseline per app plus every (app × point) design point.
func slowdownPlan(o Options, procs int, k core.Knob, points []float64) (*run.Plan, error) {
	o = o.Norm()
	sel, err := selectedApps(o)
	if err != nil {
		return nil, err
	}
	p := run.NewPlan()
	for _, a := range sel {
		for _, v := range o.sweepPoints(points) {
			p.AddSweep(o.sweepSpec(a, procs, k, v), o.Verify)
		}
	}
	return p, nil
}

// slowdownRender renders a completed sweep as a slowdown table.
func slowdownRender(id, title, unit string, o Options, st *run.Store, procs int, k core.Knob, points []float64) (*Table, error) {
	o = o.Norm()
	sel, err := selectedApps(o)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title}
	t.Columns = []string{unit}
	for _, a := range sel {
		t.Columns = append(t.Columns, a.PaperName())
	}
	for _, v := range o.sweepPoints(points) {
		row := []string{f1(v)}
		for _, a := range sel {
			pt, err := st.Point(o.sweepSpec(a, procs, k, v))
			if err != nil {
				return nil, err
			}
			if pt.Livelocked {
				row = append(row, "N/A")
				continue
			}
			row = append(row, f2(pt.Slowdown))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("slowdown relative to the unmodified machine; %d nodes, scale %.4g", procs, o.Scale),
		"N/A: exceeded the livelock time limit (the paper's Barnes behavior)")
	return t, nil
}

// Plan/Render pairs for the four sensitivity sweeps. Fig 5a is the only
// 16-node sweep; the rest run at the options' cluster size.

func fig5aPlan(o Options) (*run.Plan, error) {
	return slowdownPlan(o, 16, core.KnobO, overheadPoints)
}

func fig5aRender(o Options, st *run.Store) (*Table, error) {
	return slowdownRender("fig5a", "Slowdown vs added overhead (16 nodes)", "Δo(µs)", o, st, 16, core.KnobO, overheadPoints)
}

func fig5bPlan(o Options) (*run.Plan, error) {
	o = o.Norm()
	return slowdownPlan(o, o.Procs, core.KnobO, overheadPoints)
}

func fig5bRender(o Options, st *run.Store) (*Table, error) {
	o = o.Norm()
	return slowdownRender("fig5b", "Slowdown vs added overhead (32 nodes)", "Δo(µs)", o, st, o.Procs, core.KnobO, overheadPoints)
}

func fig6Plan(o Options) (*run.Plan, error) {
	o = o.Norm()
	return slowdownPlan(o, o.Procs, core.KnobG, gapPoints)
}

func fig6Render(o Options, st *run.Store) (*Table, error) {
	o = o.Norm()
	return slowdownRender("fig6", "Slowdown vs added gap (32 nodes)", "Δg(µs)", o, st, o.Procs, core.KnobG, gapPoints)
}

func fig7Plan(o Options) (*run.Plan, error) {
	o = o.Norm()
	return slowdownPlan(o, o.Procs, core.KnobL, latencyPoints)
}

func fig7Render(o Options, st *run.Store) (*Table, error) {
	o = o.Norm()
	return slowdownRender("fig7", "Slowdown vs added latency (32 nodes)", "ΔL(µs)", o, st, o.Procs, core.KnobL, latencyPoints)
}

func fig8Plan(o Options) (*run.Plan, error) {
	o = o.Norm()
	return slowdownPlan(o, o.Procs, core.KnobBW, bulkBWPoints)
}

func fig8Render(o Options, st *run.Store) (*Table, error) {
	o = o.Norm()
	return slowdownRender("fig8", "Slowdown vs bulk bandwidth (32 nodes)", "MB/s", o, st, o.Procs, core.KnobBW, bulkBWPoints)
}

// predictedPlan declares the measured-vs-predicted matrix for one knob:
// the same specs as the corresponding slowdown sweep at the options'
// cluster size, so Table 5 shares every run with Fig 5b and Table 6 with
// Fig 6 when their plans are merged.
func predictedPlan(o Options, k core.Knob, points []float64) (*run.Plan, error) {
	o = o.Norm()
	return slowdownPlan(o, o.Procs, k, points)
}

// predictedRender renders measured-vs-predicted run times for one knob.
func predictedRender(id, title, unit string, o Options, st *run.Store, k core.Knob, points []float64,
	predict func(r0 sim.Time, m int64, added sim.Time) sim.Time) (*Table, error) {
	o = o.Norm()
	sel, err := selectedApps(o)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title}
	t.Columns = []string{unit}
	for _, a := range sel {
		t.Columns = append(t.Columns, a.PaperName()+" meas(s)", a.PaperName()+" pred(s)")
	}
	type appBase struct {
		res apps.Result
		m   int64
	}
	bases := make([]appBase, len(sel))
	for i, a := range sel {
		res, err := st.Result(o.baselineSpec(a, o.Procs))
		if err != nil {
			return nil, err
		}
		m, _ := res.Stats.MaxPerProc()
		bases[i] = appBase{res: res, m: m}
	}
	for _, v := range o.sweepPoints(points) {
		row := []string{f1(v)}
		for i, a := range sel {
			pt, err := st.Point(o.sweepSpec(a, o.Procs, k, v))
			if err != nil {
				return nil, err
			}
			meas := "N/A"
			if !pt.Livelocked {
				meas = secs(pt.Elapsed.Seconds())
			}
			pred := predict(bases[i].res.Elapsed, bases[i].m, sim.FromMicros(v))
			row = append(row, meas, secs(pred.Seconds()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"prediction inputs: baseline run time and max messages/processor (Table 4's m)")
	return t, nil
}

func table5Plan(o Options) (*run.Plan, error) {
	return predictedPlan(o, core.KnobO, overheadPoints)
}

func table5Render(o Options, st *run.Store) (*Table, error) {
	return predictedRender("table5", "Measured vs predicted, varying overhead (32 nodes)",
		"Δo(µs)", o, st, core.KnobO, overheadPoints, model.Overhead)
}

func table6Plan(o Options) (*run.Plan, error) {
	return predictedPlan(o, core.KnobG, gapPoints)
}

func table6Render(o Options, st *run.Store) (*Table, error) {
	return predictedRender("table6", "Measured vs predicted, varying gap (32 nodes)",
		"Δg(µs)", o, st, core.KnobG, gapPoints, model.GapBurst)
}
