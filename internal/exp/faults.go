package exp

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/run"
	"repro/internal/sim"
)

// The faults experiment probes the cluster's response to an imperfect
// machine, two ways. First, a delay-propagation probe: a single 1 ms
// stall injected into one processor halfway through the run. On a
// loosely-coupled program the other processors keep computing and the
// stall is absorbed; on a tightly-coupled one it propagates through the
// communication structure and the whole makespan grows by up to the full
// injected amount (or more, when the stall lands before a serializing
// phase). Second, a lossy-wire sweep: every transmission is dropped
// independently with probability 0–1% and the AM reliability protocol
// recovers by retransmission, trading completion time for delivery. The
// rate-0 row isolates the protocol's own cost on a perfect wire.

// faultDelayUs is the one-off processor stall the propagation probe
// injects (µs).
const faultDelayUs = 1000.0

// faultDropRates are the per-transmission drop probabilities of the
// lossy-wire sweep.
func faultDropRates() []float64 { return []float64{0, 0.0001, 0.001, 0.005, 0.01} }

// faultScenarios is the scenario list, in table order: the delay probe,
// then the drop sweep.
func (o Options) faultScenarios() []run.FaultSpec {
	fs := []run.FaultSpec{{DelayProc: o.Procs / 2, DelayAtFrac: 0.5, DelayUs: faultDelayUs}}
	for _, rate := range o.sweepPoints(faultDropRates()) {
		fs = append(fs, run.FaultSpec{DropProb: rate, Reliable: true})
	}
	return fs
}

// faultSpec is the canonical faulted run for an app under these options:
// no knob turned, only the fault scenario applied.
func (o Options) faultSpec(a apps.App, f run.FaultSpec) run.Spec {
	return run.Spec{App: a.Name(), Procs: o.Procs, Scale: o.Scale, Seed: o.Seed, Knob: core.KnobNone, Fault: f}
}

// faultLabel renders a scenario for the table's scenario column.
func faultLabel(f run.FaultSpec) string {
	if f.DelayUs > 0 {
		return fmt.Sprintf("delay p%d +%gms", f.DelayProc, f.DelayUs/1000)
	}
	if f.DropProb == 0 {
		return "reliable, lossless"
	}
	return fmt.Sprintf("drop %g%%", 100*f.DropProb)
}

// faultsPlan lists every app at every scenario.
func faultsPlan(o Options, sel []apps.App) []run.Spec {
	var specs []run.Spec
	for _, a := range sel {
		for _, f := range o.faultScenarios() {
			specs = append(specs, o.faultSpec(a, f))
		}
	}
	return specs
}

// faultsRender builds the scenario table. Δr is the makespan growth over
// the unfaulted baseline; prop% expresses it as a fraction of the
// injected stall (delay rows only) — 0 means fully absorbed, 100 means
// fully propagated.
func faultsRender(o Options, sel []apps.App, st *run.Store) (*Table, error) {
	t := &Table{
		ID:    "faults",
		Title: fmt.Sprintf("Fault injection: delay propagation and lossy-wire recovery (%d nodes)", o.Procs),
	}
	t.Columns = []string{"program", "scenario", "run(s)", "slowdown", "Δr(ms)", "prop%", "retrans", "drops", "dup-disc"}
	ms := func(d sim.Time) string { return fmt.Sprintf("%.3f", d.Seconds()*1e3) }
	for _, a := range sel {
		base, err := st.Result(o.baselineSpec(a, o.Procs))
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", a.Name(), err)
		}
		for _, f := range o.faultScenarios() {
			spec := o.faultSpec(a, f)
			pt, err := st.Point(spec)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", a.Name(), faultLabel(f), err)
			}
			if pt.Livelocked {
				row := []string{a.PaperName(), faultLabel(f)}
				for len(row) < len(t.Columns) {
					row = append(row, "N/A")
				}
				t.Rows = append(t.Rows, row)
				continue
			}
			res, err := st.Result(spec)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", a.Name(), faultLabel(f), err)
			}
			dr := pt.Elapsed - base.Elapsed
			prop := "—"
			if f.DelayUs > 0 {
				prop = fmt.Sprintf("%.1f", 100*dr.Seconds()*1e6/f.DelayUs)
			}
			t.Rows = append(t.Rows, []string{
				a.PaperName(), faultLabel(f), secs(pt.Elapsed.Seconds()), f2(pt.Slowdown),
				ms(dr), prop,
				fmt.Sprintf("%d", res.Stats.Retransmits),
				fmt.Sprintf("%d", res.Stats.WireDrops),
				fmt.Sprintf("%d", res.Stats.DupsDiscarded),
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("delay probe: a one-off %gms stall on one processor at half the baseline", faultDelayUs/1000),
		"makespan; prop% = Δr as a share of the injected stall (0 = absorbed by",
		"slack, 100 = fully propagated into the critical path)",
		"drop rows: each transmission lost independently with the given",
		"probability; the AM reliability protocol (go-back-free retransmission",
		"with cumulative acks) recovers every loss — retrans counts NIC",
		"re-injections, drops counts wire losses, dup-disc receiver discards",
		"the lossless reliable row isolates the protocol's overhead on a",
		"perfect wire (sequencing and ack traffic only)",
		"N/A: exceeded the livelock time limit")
	return t, nil
}
