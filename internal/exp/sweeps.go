package exp

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
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

// A sweep is one of the Figure 5–8 sensitivity sweeps: a knob over its
// paper grid, at a fixed cluster size or (procs 0) the options' one.
type sweep struct {
	procs  int
	knob   core.Knob
	points []float64
}

// The Figure 5–8 sweeps. Fig 5a is the only 16-node one; Tables 5 and 6
// read the Fig 5b and Fig 6 runs, so a merged plan shares them.
var (
	overhead16    = sweep{16, core.KnobO, overheadPoints}
	overheadSweep = sweep{0, core.KnobO, overheadPoints}
	gapSweep      = sweep{0, core.KnobG, gapPoints}
	latencySweep  = sweep{0, core.KnobL, latencyPoints}
	bulkSweep     = sweep{0, core.KnobBW, bulkBWPoints}
)

func (w sweep) procsFor(o Options) int {
	if w.procs > 0 {
		return w.procs
	}
	return o.Procs
}

// specs lists every (app × point) design point.
func (w sweep) specs(o Options, sel []apps.App) []run.Spec {
	var specs []run.Spec
	for _, a := range sel {
		for _, v := range o.sweepPoints(w.points) {
			specs = append(specs, o.sweepSpec(a, w.procsFor(o), w.knob, v))
		}
	}
	return specs
}

// slowdown renders a completed sweep as a slowdown table.
func (w sweep) slowdown(id, title, unit string) func(Options, []apps.App, *run.Store) (*Table, error) {
	return func(o Options, sel []apps.App, st *run.Store) (*Table, error) {
		procs := w.procsFor(o)
		t := &Table{ID: id, Title: title}
		t.Columns = []string{unit}
		for _, a := range sel {
			t.Columns = append(t.Columns, a.PaperName())
		}
		for _, v := range o.sweepPoints(w.points) {
			row := []string{f1(v)}
			for _, a := range sel {
				pt, err := st.Point(o.sweepSpec(a, procs, w.knob, v))
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
}

// predicted renders measured-vs-predicted run times for the sweep's
// knob, the prediction read from each app's baseline run time and
// max messages per processor.
func (w sweep) predicted(id, title, unit string,
	predict func(r0 sim.Time, m int64, added sim.Time) sim.Time) func(Options, []apps.App, *run.Store) (*Table, error) {
	return func(o Options, sel []apps.App, st *run.Store) (*Table, error) {
		procs := w.procsFor(o)
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
			res, err := st.Result(o.baselineSpec(a, procs))
			if err != nil {
				return nil, err
			}
			m, _ := res.Stats.MaxPerProc()
			bases[i] = appBase{res: res, m: m}
		}
		for _, v := range o.sweepPoints(w.points) {
			row := []string{f1(v)}
			for i, a := range sel {
				pt, err := st.Point(o.sweepSpec(a, procs, w.knob, v))
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
}
