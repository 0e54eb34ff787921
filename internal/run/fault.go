package run

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/sim"
)

// FaultSpec is the canonical fault scenario of a Spec: a flat comparable
// struct, so faulted runs key and deduplicate in the Store exactly like
// knob settings do. The zero value is the perfect wire. Scenarios are
// expressed relative to the run's own baseline (DelayAtFrac) and expanded
// into a concrete fault.Plan by Wire once the baseline has executed.
type FaultSpec struct {
	// DelayProc, DelayAtFrac, and DelayUs describe a one-off processor
	// delay — the Afzal-style propagation probe: DelayUs microseconds
	// injected into processor DelayProc at DelayAtFrac of the baseline
	// makespan. Active when DelayUs is nonzero; Runner.Check refuses a
	// delay that is negative or past the clock, a processor the run does
	// not have and a fraction outside [0, 1].
	DelayProc   int
	DelayAtFrac float64
	DelayUs     float64
	// DropProb drops each wire transmission independently with this
	// probability; DupProb duplicates likewise. Either requires Reliable
	// and a probability in [0, 1] (Runner.Check).
	DropProb float64
	DupProb  float64
	// Reliable enables the AM reliability layer. It is measurable on its
	// own (DropProb 0): the protocol's sequencing and ack machinery has a
	// cost even on a lossless wire.
	Reliable bool
}

// active reports whether the scenario perturbs the run at all.
func (f FaultSpec) active() bool { return f != FaultSpec{} }

// Wire applies the scenario to a run configuration. baseline is the
// unfaulted run's makespan, which anchors DelayAtFrac; the plan inherits
// the run's seed through apps.NewWorld, so equal specs fault identically.
func (f FaultSpec) Wire(cfg apps.Config, baseline sim.Time) apps.Config {
	if !f.active() {
		return cfg
	}
	var plan fault.Plan
	if f.DelayUs != 0 {
		at := sim.Time(float64(baseline)*f.DelayAtFrac + 0.5)
		plan.ProcDelays = append(plan.ProcDelays, fault.ProcDelay{
			Proc: f.DelayProc, At: at, Extra: sim.FromMicros(f.DelayUs),
		})
	}
	if f.DropProb != 0 {
		plan.Drops = append(plan.Drops, fault.DropRule{Match: fault.Any(), Prob: f.DropProb})
	}
	if f.DupProb != 0 {
		plan.Dups = append(plan.Dups, fault.DupRule{Match: fault.Any(), Prob: f.DupProb})
	}
	if !plan.Empty() {
		cfg.FaultPlan = &plan
	}
	if f.Reliable {
		cfg.Reliability = am.Reliability{Enabled: true}
	}
	return cfg
}

// check holds the scenario to the run's machine: the delayed processor
// exists, the delay falls inside the baseline's makespan and fits the
// clock. The plan Wire builds checks the rest (apps.Config.Validate).
func (f FaultSpec) check(procs int) error {
	if !f.active() {
		return nil
	}
	if f.DelayProc < 0 || f.DelayProc >= procs {
		return fmt.Errorf("fault delay_proc %d is not one of the run's %d processors", f.DelayProc, procs)
	}
	if !(f.DelayAtFrac >= 0 && f.DelayAtFrac <= 1) {
		return fmt.Errorf("fault delay_at_frac %g is outside [0, 1]", f.DelayAtFrac)
	}
	if !fitsClock(f.DelayUs) {
		return fmt.Errorf("fault delay_us %g is out of range", f.DelayUs)
	}
	return nil
}

// String renders the scenario for progress lines.
func (f FaultSpec) String() string {
	if !f.active() {
		return ""
	}
	s := ""
	if f.DelayUs > 0 {
		s += fmt.Sprintf(" delay[p%d@%g+%gµs]", f.DelayProc, f.DelayAtFrac, f.DelayUs)
	}
	if f.DropProb > 0 {
		s += fmt.Sprintf(" drop=%g", f.DropProb)
	}
	if f.DupProb > 0 {
		s += fmt.Sprintf(" dup=%g", f.DupProb)
	}
	if f.Reliable {
		s += " +rel"
	}
	return s
}
