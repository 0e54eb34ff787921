package run

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/splitc"
)

// TestRunnerCheck holds Runner.Check to one refusal per rule (its own
// and apps.Config.Validate's), each naming its field, and runs every
// row as a plan: RunIntoContext refuses it whole with Check's error,
// executes nothing and does not panic.
func TestRunnerCheck(t *testing.T) {
	ok := Spec{App: "radix", Procs: 4, Scale: 1e-4, Seed: 1, Knob: core.KnobNone}
	with := func(f func(*Spec)) Spec {
		s := ok
		f(&s)
		return s
	}
	knob := func(k core.Knob, v float64) Spec {
		return with(func(s *Spec) { s.Knob, s.Value = k, v })
	}
	fault := func(f FaultSpec) Spec {
		return with(func(s *Spec) { s.Fault = f })
	}
	r := &Runner{Jobs: 2}
	if err := r.Check(ok); err != nil {
		t.Fatalf("the rows' base spec is refused: %v", err)
	}
	for _, tc := range []struct {
		name   string
		spec   Spec
		errHas string
	}{
		{"procs -1", with(func(s *Spec) { s.Procs = -1 }), "procs"},
		{"procs 0", with(func(s *Spec) { s.Procs = 0 }), "procs"},
		{"scale -1", with(func(s *Spec) { s.Scale = -1 }), "scale"},
		{"scale 0", with(func(s *Spec) { s.Scale = 0 }), "scale"},
		{"scale NaN", with(func(s *Spec) { s.Scale = math.NaN() }), "scale"},
		{"scale +Inf", with(func(s *Spec) { s.Scale = math.Inf(1) }), "scale"},
		{"scale 1e300", with(func(s *Spec) { s.Scale = 1e300 }), "scale"},
		{"o -2", knob(core.KnobO, -2), "negative delta"},
		{"o 1e300", knob(core.KnobO, 1e300), "out of range"},
		{"o NaN", knob(core.KnobO, math.NaN()), "out of range"},
		{"bw -5", knob(core.KnobBW, -5), "negative bandwidth"},
		{"cpu 1e-300", with(func(s *Spec) { s.CPUSpeedup = 1e-300 }), "CPU speedup"},
		{"cpu NaN", with(func(s *Spec) { s.CPUSpeedup = math.NaN() }), "CPU speedup"},
		{"cpu +Inf", with(func(s *Spec) { s.CPUSpeedup = math.Inf(1) }), "CPU speedup"},
		{"delay on a missing processor", fault(FaultSpec{DelayProc: 99, DelayUs: 5}), "delay_proc"},
		{"delay on processor -1", fault(FaultSpec{DelayProc: -1, DelayUs: 5}), "delay_proc"},
		{"delay fraction -3", fault(FaultSpec{DelayAtFrac: -3, DelayUs: 5}), "delay_at_frac"},
		{"delay fraction NaN", fault(FaultSpec{DelayAtFrac: math.NaN(), DelayUs: 5}), "delay_at_frac"},
		{"delay NaN", fault(FaultSpec{DelayUs: math.NaN()}), "delay_us"},
		{"delay +Inf", fault(FaultSpec{DelayUs: math.Inf(1)}), "delay_us"},
		{"negative delay", fault(FaultSpec{DelayUs: -5}), "Extra"},
		{"drop probability 2", fault(FaultSpec{DropProb: 2, Reliable: true}), "Prob"},
		{"drop probability NaN", fault(FaultSpec{DropProb: math.NaN(), Reliable: true}), "Prob"},
		{"negative dup probability", fault(FaultSpec{DupProb: -0.5, Reliable: true}), "Prob"},
		{"dup probability NaN", fault(FaultSpec{DupProb: math.NaN(), Reliable: true}), "Prob"},
		{"lossy wire without reliable", fault(FaultSpec{DropProb: 0.5}), "Reliability"},
		{"unknown app", with(func(s *Spec) { s.App = "no-such-app" }), "no-such-app"},
		{"unknown collective", with(func(s *Spec) { s.Coll = splitc.Collectives{Barrier: "nope"} }), "barrier"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := r.Check(tc.spec); err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("Check = %v, want a refusal naming %q", err, tc.errHas)
			}
			p := NewPlan()
			p.AddSweep(tc.spec, false)
			st := NewStore()
			err := r.RunIntoContext(context.Background(), st, p)
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("RunIntoContext = %v, want a refusal naming %q", err, tc.errHas)
			} else if want := r.Check(p.Specs()...); err.Error() != want.Error() {
				t.Errorf("RunIntoContext = %v, Check says %v", err, want)
			}
			if executed, hits := st.Stats(); executed != 0 || hits != 0 {
				t.Errorf("a refused plan executed %d runs (%d hits)", executed, hits)
			}
		})
	}
}
