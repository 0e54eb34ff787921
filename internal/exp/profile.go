package exp

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/prof"
	"repro/internal/run"
	"repro/internal/sim"
)

// The profile experiment dissects where each application's time goes: it
// runs every app with the stall-attribution profiler attached — at
// baseline and with the paper's two first-class knobs turned (Δo and Δg,
// both +25 µs, the middle of the sweep ranges) — and reports the
// per-category share of total processor-time. The shares give a direct,
// measured decomposition behind the §4.1 analytic models: added overhead
// should surface in the o-send/o-recv accounts (the 2mΔo term), added gap
// in the gap account (the mΔg term).

// profileDeltaUs is the knob setting profiled runs use (µs added).
const profileDeltaUs = 25.0

// profilePoints are the machine settings the experiment profiles.
var profilePoints = []struct {
	label string
	knob  core.Knob
	value float64
}{
	{"baseline", core.KnobNone, 0},
	{"Δo=+25µs", core.KnobO, profileDeltaUs},
	{"Δg=+25µs", core.KnobG, profileDeltaUs},
}

// profileSpec is the canonical profiled run for one design point.
func (o Options) profileSpec(a apps.App, knob core.Knob, value float64) run.Spec {
	var s run.Spec
	if knob == core.KnobNone {
		s = o.baselineSpec(a, o.Procs)
	} else {
		s = o.sweepSpec(a, o.Procs, knob, value)
	}
	s.Profile = true
	return s
}

// profilePlan lists every app at the two turned-knob points; AddSweep
// declares the profiled baseline with them.
func profilePlan(o Options, sel []apps.App) []run.Spec {
	var specs []run.Spec
	for _, a := range sel {
		for _, pt := range profilePoints {
			if pt.knob == core.KnobNone {
				continue
			}
			specs = append(specs, o.profileSpec(a, pt.knob, pt.value))
		}
	}
	return specs
}

// profileShareColumns maps the breakdown categories to short column
// headers, in prof display order.
var profileShareColumns = []string{
	"cmp%", "osnd%", "orcv%", "gap%", "win%", "lat%", "blk%", "bar%", "lck%", "slp%",
}

// profileRender builds the breakdown table and cross-checks the measured
// stall growth against the §4.1 predictions.
func profileRender(o Options, sel []apps.App, st *run.Store) (*Table, error) {
	t := &Table{
		ID:    "profile",
		Title: fmt.Sprintf("Stall attribution per application (%d nodes)", o.Procs),
	}
	t.Columns = append([]string{"program", "point", "run(s)"}, profileShareColumns...)
	t.Columns = append(t.Columns, "Δmeas(s)", "Δpred(s)")
	delta := sim.FromMicros(profileDeltaUs)
	for _, a := range sel {
		base, err := st.Result(o.profileSpec(a, core.KnobNone, 0))
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", a.Name(), err)
		}
		if base.Profile == nil {
			return nil, fmt.Errorf("%s baseline ran without a profiler attached", a.Name())
		}
		m, _ := base.Stats.MaxPerProc()
		for _, pt := range profilePoints {
			spec := o.profileSpec(a, pt.knob, pt.value)
			point, err := st.Point(spec)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", a.Name(), pt.label, err)
			}
			if point.Livelocked {
				row := []string{a.PaperName(), pt.label}
				for len(row) < len(t.Columns) {
					row = append(row, "N/A")
				}
				t.Rows = append(t.Rows, row)
				continue
			}
			res, err := st.Result(spec)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", a.Name(), pt.label, err)
			}
			p := res.Profile
			if p == nil {
				return nil, fmt.Errorf("%s %s ran without a profiler attached", a.Name(), pt.label)
			}
			if err := p.CheckConservation(); err != nil {
				return nil, fmt.Errorf("%s %s: %w", a.Name(), pt.label, err)
			}
			row := []string{a.PaperName(), pt.label, secs(res.Elapsed.Seconds())}
			// Paper categories only: profiled runs here are fault-free, so
			// the fault-injection accounts are structurally zero and the
			// table layout predates them.
			for _, c := range prof.PaperCategories() {
				row = append(row, fmt.Sprintf("%.1f", 100*p.Share(c)))
			}
			switch pt.knob {
			case core.KnobNone:
				row = append(row, "—", "—")
			case core.KnobO:
				pred := model.Overhead(base.Elapsed, m, delta) - base.Elapsed
				row = append(row, secs((res.Elapsed - base.Elapsed).Seconds()), secs(pred.Seconds()))
			case core.KnobG:
				pred := model.GapBurst(base.Elapsed, m, delta) - base.Elapsed
				row = append(row, secs((res.Elapsed - base.Elapsed).Seconds()), secs(pred.Seconds()))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"share columns: compute, o-send, o-recv, gap stall, window stall, latency",
		"wait, bulk bandwidth, barrier wait, lock wait, disk/sleep — percent of",
		fmt.Sprintf("total processor-time (%d procs × makespan); rows sum to 100 by the", o.Procs),
		"profiler's conservation invariant (checked during rendering)",
		"Δpred: §4.1 models — r0+2mΔo for overhead, r0+mΔg for gap (m = max",
		"messages on any processor at baseline); Δmeas: measured run-time growth",
		"N/A: exceeded the livelock time limit (the paper's Barnes behavior)")
	return t, nil
}
