// Package run is the experiment-execution engine: experiments declare
// the set of simulation runs they need as a Plan of canonical Specs, and
// a Runner executes the Plan on a bounded worker pool, deduplicating
// identical runs in flight and collecting every outcome in a
// mutex-guarded Store. Each individual simulation stays single-goroutine
// and deterministic, so a Plan's results — and any table rendered from
// them — are bit-identical at every job count.
package run

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/logp"
	"repro/internal/splitc"
)

// Spec is the canonical key of one simulation run. Two runs with equal
// Specs (on the same machine parameters) are the same run; the Store
// executes each distinct Spec at most once.
type Spec struct {
	// App is the suite application's short name ("radix", "em3d-read").
	App string
	// Procs is the cluster size.
	Procs int
	// Scale is the input scale relative to the paper's data sets.
	Scale float64
	// Seed fixes all pseudo-randomness; 0 normalizes to the apps' default.
	Seed int64
	// Knob is the varied LogGP parameter; core.KnobNone marks a baseline
	// run on the unmodified machine.
	Knob core.Knob
	// Value is the knob setting (µs, or MB/s for core.KnobBW); zero for
	// baselines.
	Value float64
	// Verify runs the application self-check. Only baseline runs verify;
	// swept runs always normalize to false (core.Measure semantics).
	Verify bool
	// CPUSpeedup scales local computation (§5.5's processor-investment
	// runs); 0, 1 and any negative factor all mean the machine's own speed
	// and normalize to 0.
	CPUSpeedup float64
	// Profile attaches the stall-attribution profiler and fills
	// Result.Profile. Profiled runs key separately from unprofiled ones:
	// attribution is observation-only (identical virtual times), but the
	// distinction keeps Result reuse explicit.
	Profile bool
	// Fault is the run's fault scenario (zero = perfect wire). A faulted
	// run is never a baseline: its slowdown is measured against the same
	// spec with the zero scenario.
	Fault FaultSpec
	// Coll selects the splitc collective algorithms (zero = the
	// historical defaults). Runs with different selections key — and
	// cache — separately: the selection changes the schedule, so it
	// changes the result.
	Coll splitc.Collectives
}

// Baseline builds the canonical baseline Spec for an application
// configuration.
func Baseline(app string, procs int, scale float64, seed int64, verify bool) Spec {
	return Spec{App: app, Procs: procs, Scale: scale, Seed: seed, Knob: core.KnobNone, Verify: verify}.norm()
}

// IsBaseline reports whether the spec runs the unmodified machine.
func (s Spec) IsBaseline() bool { return s.Knob == core.KnobNone && !s.Fault.active() }

// norm canonicalizes the spec so that equal runs compare equal as map
// keys and hash equally.
func (s Spec) norm() Spec {
	// The apps apply a CPU factor only when it is > 0: 1 and any
	// negative factor run the machine's own speed, as 0 does.
	if s.CPUSpeedup == 1 || s.CPUSpeedup < 0 {
		s.CPUSpeedup = 0
	}
	// The apps run seed 0 as their default seed: the same run.
	if s.Seed == 0 {
		s.Seed = apps.Config{}.Norm().Seed
	}
	// -0 == 0 as a map key, so it must not print (and hash) as "-0".
	for _, f := range []*float64{&s.Scale, &s.Value, &s.CPUSpeedup,
		&s.Fault.DelayAtFrac, &s.Fault.DelayUs, &s.Fault.DropProb, &s.Fault.DupProb} {
		if *f == 0 {
			*f = 0
		}
	}
	if s.IsBaseline() {
		s.Value = 0
	} else {
		s.Verify = false
	}
	return s
}

// BaselineSpec is the baseline this spec's slowdown and livelock bound
// are measured against: the same (app, procs, scale, seed) with no knob
// applied and no CPU speedup. verify carries the plan-level choice for
// baseline runs.
func (s Spec) BaselineSpec(verify bool) Spec {
	b := Baseline(s.App, s.Procs, s.Scale, s.Seed, verify)
	b.Profile = s.Profile
	b.Coll = s.Coll
	return b
}

// Config builds the application configuration for the spec on a machine.
// The knob itself is applied by the executor (core.Measure), not here.
func (s Spec) Config(params logp.Params) apps.Config {
	return apps.Config{
		Procs:       s.Procs,
		Scale:       s.Scale,
		Params:      params,
		Seed:        s.Seed,
		Verify:      s.Verify,
		CPUSpeedup:  s.CPUSpeedup,
		Profile:     s.Profile,
		Collectives: s.Coll,
	}
}

// String renders the spec for progress lines and errors.
func (s Spec) String() string {
	suffix := s.Fault.String()
	if s.CPUSpeedup != 0 {
		suffix += fmt.Sprintf(" cpu×%g", s.CPUSpeedup)
	}
	if s.Profile {
		suffix += " +prof"
	}
	if !s.Coll.IsZero() {
		suffix += " " + s.Coll.String()
	}
	if s.IsBaseline() {
		return fmt.Sprintf("%s/p%d baseline%s", s.App, s.Procs, suffix)
	}
	if s.Knob == core.KnobNone {
		return fmt.Sprintf("%s/p%d%s", s.App, s.Procs, suffix)
	}
	return fmt.Sprintf("%s/p%d %v=%g%s", s.App, s.Procs, s.Knob, s.Value, suffix)
}
