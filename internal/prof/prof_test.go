package prof_test

import (
	"errors"
	"testing"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/suite"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/logp"
	"repro/internal/prof"
	"repro/internal/sim"
)

// TestConservationAllApps is the profiler's acceptance property: for
// every suite application, at baseline and under an overhead knob, every
// processor's attributed categories sum exactly to the makespan with
// nothing left unattributed — i.e. the accountant explains every
// nanosecond of every timeline.
func TestConservationAllApps(t *testing.T) {
	points := []struct {
		name   string
		params logp.Params
	}{
		{"baseline", logp.NOW()},
		{"o+25us", core.KnobO.Apply(logp.NOW(), 25)},
	}
	for _, a := range suite.All() {
		for _, pt := range points {
			t.Run(a.Name()+"/"+pt.name, func(t *testing.T) {
				res, err := a.Run(apps.Config{
					Procs:     8,
					Scale:     1.0 / 2048,
					Seed:      1,
					Params:    pt.params,
					Profile:   true,
					TimeLimit: 120 * sim.Second,
				})
				if errors.Is(err, sim.ErrTimeLimit) {
					t.Skipf("livelocked under %s (expected for lock-based apps at high overhead)", pt.name)
				}
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				p := res.Profile
				if p == nil {
					t.Fatal("Config.Profile set but Result.Profile is nil")
				}
				if p.Elapsed != res.Elapsed {
					t.Fatalf("profile makespan %v, run elapsed %v", p.Elapsed, res.Elapsed)
				}
				if len(p.Procs) != 8 {
					t.Fatalf("breakdowns for %d procs, want 8", len(p.Procs))
				}
				// Conservation is exact: a charge path missing its hook
				// leaves a hole in some processor's sum.
				if err := p.CheckConservation(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestProfileObservationOnly checks attaching the profiler does not
// perturb the simulation: elapsed time and message counts are identical
// with and without it.
func TestProfileObservationOnly(t *testing.T) {
	a, err := suite.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	cfg := apps.Config{Procs: 8, Scale: 1.0 / 2048, Seed: 1, Params: logp.NOW()}
	plain, err := a.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profile = true
	profiled, err := a.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Elapsed != profiled.Elapsed {
		t.Errorf("profiling changed elapsed: %v vs %v", plain.Elapsed, profiled.Elapsed)
	}
	if plain.Summary.AvgMsgsPerProc != profiled.Summary.AvgMsgsPerProc {
		t.Errorf("profiling changed message count: %g vs %g msgs/proc",
			plain.Summary.AvgMsgsPerProc, profiled.Summary.AvgMsgsPerProc)
	}
}

// TestConservationUnderFaults extends the acceptance property to a
// faulted machine: with a lossy, duplicating wire under the reliability
// protocol and two mid-run stalls summed on one processor, every
// nanosecond must still land in exactly one account — retransmission
// occupancy in CatRetransmit, injected processor time in CatFaultDelay,
// discarded duplicates nowhere — with nothing unattributed.
func TestConservationUnderFaults(t *testing.T) {
	for _, name := range []string{"radix", "nowsort"} {
		t.Run(name, func(t *testing.T) {
			a, err := suite.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			plan := &fault.Plan{
				Drops: []fault.DropRule{{Match: fault.Any(), Prob: 0.01}},
				Dups:  []fault.DupRule{{Match: fault.Any(), Prob: 0.01}},
				ProcDelays: []fault.ProcDelay{
					{Proc: 3, At: 10 * sim.Millisecond, Extra: sim.FromMicros(500)},
					{Proc: 3, At: 10 * sim.Millisecond, Extra: sim.FromMicros(250)},
				},
			}
			res, err := a.Run(apps.Config{
				Procs:       8,
				Scale:       1.0 / 2048,
				Seed:        1,
				Params:      logp.NOW(),
				Profile:     true,
				TimeLimit:   120 * sim.Second,
				FaultPlan:   plan,
				Reliability: am.Reliability{Enabled: true},
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			p := res.Profile
			if p == nil {
				t.Fatal("Config.Profile set but Result.Profile is nil")
			}
			// Exact conservation: nothing is left unattributed.
			if err := p.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			if res.Stats.WireDrops > 0 && p.Share(prof.CatRetransmit) == 0 {
				t.Error("wire dropped messages but no time landed in the retransmit account")
			}
			if res.Stats.WireDups == 0 || res.Stats.DupsDiscarded == 0 {
				t.Errorf("wire duplicated %d, NIC discarded %d; the dup rule must reach dedup",
					res.Stats.WireDups, res.Stats.DupsDiscarded)
			}
			if got, want := p.Total(prof.CatFaultDelay), sim.FromMicros(750); got != want {
				t.Errorf("fault-delay account holds %v, want the two stalls' sum %v", got, want)
			}
		})
	}
}
