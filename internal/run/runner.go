package run

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/suite"
	"repro/internal/core"
	"repro/internal/logp"
	"repro/internal/sim"
)

// Progress reports one completed run of a plan to its progress callback
// (Runner.OnProgress, Execute's onProgress).
type Progress struct {
	// Done runs out of Total in the current plan (cached ones included).
	Done, Total int
	// Spec identifies the run that just completed.
	Spec Spec
	// Cached is true when this plan did not produce the run: the store
	// already held it (an earlier plan's run, or one another plan has in
	// flight), or the Exec answered it without running it (the Runner's
	// Δ = 0 points, see RunInto).
	Cached bool
	// Wall is the real time producing the run took (zero when cached).
	Wall time.Duration
	// Err is the run's error, if any.
	Err error
}

// Runner executes Plans on a bounded worker pool. Every run starts from
// the Berkeley NOW machine (logp.NOW()); the zero value runs the paper
// applications and the weak-scaling kernels with GOMAXPROCS workers.
type Runner struct {
	// Jobs bounds concurrent simulations; 0 means runtime.GOMAXPROCS(0).
	Jobs int
	// Resolve maps an application name to its implementation; nil means
	// suite.ByName (a paper application, then a kernel).
	Resolve func(string) (apps.App, error)
	// OnProgress, when non-nil, observes every completed run. It is
	// called from worker goroutines, one call at a time.
	OnProgress func(Progress)
}

func (r *Runner) jobs() int {
	if r.Jobs > 0 {
		return r.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// App resolves an application name the way every run of this Runner
// will, so a caller can reject an unknown name before queueing work.
func (r *Runner) App(name string) (apps.App, error) {
	if r.Resolve != nil {
		return r.Resolve(name)
	}
	return suite.ByName(name)
}

// Check reports the first spec that describes no run: its app does not
// resolve, its procs or scale is 0 (the apps' default under a key that
// says 0), its knob value or fault scenario does not fit, or
// apps.Config.Validate refuses its knob-applied, fault-wired config.
// RunIntoContext and the daemon's admission both call it.
func (r *Runner) Check(specs ...Spec) error {
	for _, s := range specs {
		if err := r.check(s); err != nil {
			return fmt.Errorf("run: %v: %w", s, err)
		}
	}
	return nil
}

func (r *Runner) check(s Spec) error {
	if _, err := r.App(s.App); err != nil {
		return err
	}
	if s.Procs == 0 || s.Scale == 0 {
		return fmt.Errorf("procs and scale must be set (0 would run the apps' default), got procs %d, scale %g", s.Procs, s.Scale)
	}
	if s.Knob != core.KnobNone && !fitsClock(s.Value) {
		return fmt.Errorf("%v=%g is out of range", s.Knob, s.Value)
	}
	if err := s.Fault.check(s.Procs); err != nil {
		return err
	}
	// The scenario's shape does not depend on the baseline's makespan.
	return s.Fault.Wire(s.Config(s.Knob.Apply(logp.NOW(), s.Value)), 0).Validate()
}

// fitsClock reports whether µs (or MB/s) is finite and fits the int64 ns clock.
func fitsClock(us float64) bool { return math.Abs(us)*float64(sim.Microsecond) < math.MaxInt64 }

// Run executes a plan into a fresh store and returns it. The returned
// error is the first failed run in plan order (every run still executes,
// so partial results remain inspectable through the store).
func (r *Runner) Run(p *Plan) (*Store, error) {
	st := NewStore()
	err := r.RunInto(st, p)
	return st, err
}

// RunInto executes a plan against an existing store, skipping (and
// counting as cache hits) any runs the store already holds, on Execute's
// dependency-ordered lanes: a swept run starts when its own baseline has
// completed, the one whose baseline executed the most events first.
//
// A swept run that is the very run its baseline was (sameRun: the Δ = 0
// row of the paper's sweeps over an unverified baseline) is not simulated
// a second time. It takes a lane like any swept run, completes from the
// baseline's outcome without simulating, and is reported as
// Progress{Cached: true}.
func (r *Runner) RunInto(st *Store, p *Plan) error {
	return r.RunIntoContext(context.Background(), st, p)
}

// RunIntoContext is RunInto with cancellation (see Execute). A simulation
// already executing when ctx is canceled runs to completion (the
// simulator has no preemption points — a run is one synchronous
// computation), but no further run starts, and the call returns
// ctx.Err(). A plan Check refuses runs nothing: its first refusal returns.
func (r *Runner) RunIntoContext(ctx context.Context, st *Store, p *Plan) error {
	if err := r.Check(p.order...); err != nil {
		return err
	}
	return Execute(ctx, st, p, r.jobs(), r.OnProgress, r.exec)
}

// exec is the Runner's Exec: a baseline when base is nil, else a swept
// run against its completed baseline — answered from the baseline when
// it is the very run the baseline was. A run is a pure function of its
// configuration, and such a run's configuration is its baseline's apart
// from a livelock bound 300 times the run's length, so the baseline's
// result is its result: shared, not copied.
func (r *Runner) exec(_ context.Context, s Spec, base *Outcome) (Outcome, bool) {
	switch {
	case base == nil:
		return r.runBaseline(s), false
	case base.Err == nil && sameRun(s, base.Spec):
		out := Outcome{Spec: s, Res: base.Res, Point: core.Point{Value: s.Value, Elapsed: base.Res.Elapsed}}
		if base.Res.Elapsed > 0 { // as core.Measure divides
			out.Point.Slowdown = 1
		}
		return out, true
	}
	return r.ExecSweep(s, *base), false
}

// sameRun reports whether swept spec s is the very run its baseline b
// was: a perfect wire, and a configuration — the knob applied to the
// NOW, CPU speed, self-check, instrumentation — equal to the baseline's.
// Compared, never inferred from Value == 0: a verifying baseline is a
// different run (six of the ten self-checks communicate on the simulated
// machine).
func sameRun(s, b Spec) bool {
	params := logp.NOW()
	return !s.Fault.active() && s.App == b.App &&
		s.Config(s.Knob.Apply(params, s.Value)) == b.Config(params)
}

// runBaseline executes an unmodified-machine run.
func (r *Runner) runBaseline(s Spec) Outcome {
	out := Outcome{Spec: s}
	a, err := r.App(s.App)
	if err != nil {
		out.Err = err
		return out
	}
	res, err := a.Run(s.Config(logp.NOW()))
	if err != nil {
		out.Err = fmt.Errorf("baseline %s: %w", a.Name(), err)
		return out
	}
	out.Res = res
	out.Point = core.Point{Elapsed: res.Elapsed, Slowdown: 1}
	return out
}

// ExecBaseline synchronously executes one unmodified-machine run on the
// calling goroutine — the single-spec executor seam for schedulers that
// own their own worker pool (the service daemon). The runner's Jobs
// field is not consulted.
func (r *Runner) ExecBaseline(s Spec) Outcome {
	return r.runBaseline(s.norm())
}

// ExecSweep synchronously executes one design point Check accepts against
// its already-executed baseline outcome (normally ExecBaseline's result
// for s.BaselineSpec). Like ExecBaseline it is the pool-free executor seam.
func (r *Runner) ExecSweep(s Spec, base Outcome) Outcome {
	s = s.norm()
	out := Outcome{Spec: s}
	if base.Err != nil {
		out.Err = fmt.Errorf("baseline %v: %w", base.Spec, base.Err)
		return out
	}
	a, err := r.App(s.App)
	if err != nil {
		out.Err = err
		return out
	}
	cfg := s.Fault.Wire(s.Config(logp.NOW()), base.Res.Elapsed)
	out.Point, out.Res, out.Err = core.Measure(a, cfg, s.Knob, s.Value, base.Res.Elapsed)
	return out
}
