package run

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/suite"
	"repro/internal/core"
	"repro/internal/logp"
)

// Progress reports one completed run to the Runner's callback.
type Progress struct {
	// Done runs out of Total in the current plan (cached ones included).
	Done, Total int
	// Spec identifies the run that just completed.
	Spec Spec
	// Cached is true when this plan did not simulate the run: the store
	// already held it (an earlier plan's run, or one another plan has in
	// flight), or it is the very run its baseline was and took the
	// baseline's result (see RunInto).
	Cached bool
	// Wall is the real time the simulation took (zero when cached).
	Wall time.Duration
	// Err is the run's error, if any.
	Err error
}

// Runner executes Plans on a bounded worker pool. The zero value runs on
// the Berkeley NOW machine with GOMAXPROCS workers.
type Runner struct {
	// Jobs bounds concurrent simulations; 0 means runtime.GOMAXPROCS(0).
	Jobs int
	// Params is the machine every run starts from; zero means logp.NOW().
	Params logp.Params
	// Resolve maps an application name to its implementation; nil means
	// the paper suite (suite.ByName).
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

func (r *Runner) params() logp.Params {
	if r.Params == (logp.Params{}) {
		return logp.NOW()
	}
	return r.Params
}

// App resolves an application name the way every run of this Runner
// will, so a caller can reject an unknown name before queueing work.
func (r *Runner) App(name string) (apps.App, error) {
	if r.Resolve != nil {
		return r.Resolve(name)
	}
	return suite.ByName(name)
}

// Run executes a plan into a fresh store and returns it. The returned
// error is the first failed run in plan order (every run still executes,
// so partial results remain inspectable through the store).
func (r *Runner) Run(p *Plan) (*Store, error) {
	st := NewStore()
	err := r.RunInto(st, p)
	return st, err
}

// RunContext is Run with cancellation: see RunIntoContext.
func (r *Runner) RunContext(ctx context.Context, p *Plan) (*Store, error) {
	st := NewStore()
	err := r.RunIntoContext(ctx, st, p)
	return st, err
}

// RunInto executes a plan against an existing store, skipping (and
// counting as cache hits) any runs the store already holds. One bounded
// pool runs the whole plan in dependency order: a baseline provides its
// swept runs' slowdown denominator and livelock bound, so a swept run
// becomes runnable when its own baseline has completed — not when every
// baseline has. A free lane takes the next baseline in plan order while
// one is unstarted, otherwise the runnable swept run whose baseline
// executed the most events (the largest known work first, so the long
// runs do not start last; ties in plan order), and blocks only when
// nothing is runnable.
//
// A swept run that is the very run its baseline was (sameRun: the Δ = 0
// row of the paper's sweeps over an unverified baseline) is not simulated
// a second time. It completes from the baseline's outcome the moment the
// baseline does, never occupies a lane, and is reported as
// Progress{Cached: true}.
func (r *Runner) RunInto(st *Store, p *Plan) error {
	return r.RunIntoContext(context.Background(), st, p)
}

// RunIntoContext is RunInto with cancellation. A simulation already
// executing when ctx is canceled runs to completion (the simulator has
// no preemption points — a run is one synchronous computation), but no
// further run starts: every remaining spec is still claimed and
// completes immediately with ctx.Err() — the dependents of a baseline
// that was executing as soon as it returns — so concurrent waiters never
// hang, the pool drains, and the call returns ctx.Err().
func (r *Runner) RunIntoContext(ctx context.Context, st *Store, p *Plan) error {
	q := &queue{index: p.index, deps: map[Spec][]Spec{}}
	q.cond.L = &q.mu
	for _, s := range p.order {
		switch b, ok := p.dep[s]; {
		case s.IsBaseline():
			q.baselines = append(q.baselines, s)
		case ok:
			q.deps[b] = append(q.deps[b], s)
			q.waiting++
		default:
			// Plan.AddSweep always records the edge; should a plan ever
			// lack one, the run fails with this error instead of running
			// unbounded.
			err := fmt.Errorf("run: %v has no declared baseline (use Plan.AddSweep)", s)
			q.ready = append(q.ready, group{base: &Outcome{Err: err}, specs: []Spec{s}})
		}
	}
	prog := &progress{total: p.Size(), fn: r.OnProgress}
	var wg sync.WaitGroup
	for lanes := min(r.jobs(), p.Size()); lanes > 0; lanes-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s, base, ok := q.take()
				if !ok {
					return
				}
				out := r.simulate(ctx, st, prog, s, base)
				if base != nil {
					continue
				}
				// A baseline completed: the points that are this very run
				// are answered here, the rest of its sweep is runnable (at
				// once and in vain when the baseline failed: ExecSweep
				// hands each point the error).
				g := group{base: &out}
				for _, d := range q.deps[s] {
					if out.Err == nil && r.sameRun(d, s) {
						answer(ctx, st, prog, d, out.Res)
					} else {
						g.specs = append(g.specs, d)
					}
				}
				q.release(g, len(q.deps[s]))
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, s := range p.order {
		if out, ok := st.Get(s); ok && out.Err != nil {
			return fmt.Errorf("run: %v: %w", s, out.Err)
		}
	}
	return nil
}

// group is the runnable part of one completed baseline's sweep, in plan
// order.
type group struct {
	base  *Outcome
	specs []Spec
}

// queue is a running plan's scheduling state. index and deps are
// read-only once the lanes start; mu guards the rest.
type queue struct {
	index map[Spec]int    // position in the plan
	deps  map[Spec][]Spec // baseline → its swept runs, in plan order

	mu        sync.Mutex
	cond      sync.Cond
	baselines []Spec  // not yet started, in plan order
	ready     []group // runnable swept runs
	waiting   int     // swept runs whose baseline has not completed
}

// take hands a lane its next run, with the completed baseline a swept
// run is measured against (nil for a baseline), and blocks while nothing
// is runnable. It reports false once the plan has nothing left to start.
func (q *queue) take() (s Spec, base *Outcome, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.baselines) == 0 && len(q.ready) == 0 {
		if q.waiting == 0 {
			return Spec{}, nil, false
		}
		q.cond.Wait()
	}
	if len(q.baselines) > 0 {
		s, q.baselines = q.baselines[0], q.baselines[1:]
		return s, nil, true
	}
	best := 0
	for i := 1; i < len(q.ready); i++ {
		g, b := q.ready[i], q.ready[best]
		ge, be := g.base.Res.Sched.EventsRun, b.base.Res.Sched.EventsRun
		if ge > be || ge == be && q.index[g.specs[0]] < q.index[b.specs[0]] {
			best = i
		}
	}
	g := &q.ready[best]
	s, base = g.specs[0], g.base
	if g.specs = g.specs[1:]; len(g.specs) == 0 {
		q.ready = append(q.ready[:best], q.ready[best+1:]...)
	}
	return s, base, true
}

// release makes a completed baseline's group runnable and stops counting
// the baseline's n dependents as waiting.
func (q *queue) release(g group, n int) {
	q.mu.Lock()
	if len(g.specs) > 0 {
		q.ready = append(q.ready, g)
	}
	q.waiting -= n
	q.mu.Unlock()
	q.cond.Broadcast()
}

// progress serializes OnProgress calls and the done count.
type progress struct {
	mu    sync.Mutex
	done  int
	total int
	fn    func(Progress)
}

func (pr *progress) report(s Spec, cached bool, wall time.Duration, err error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.done++
	if pr.fn != nil {
		pr.fn(Progress{Done: pr.done, Total: pr.total, Spec: s, Cached: cached, Wall: wall, Err: err})
	}
}

// begin claims s for this plan. A nil entry means there is nothing left
// to do: another plan holds s and begin waited for its outcome (a store
// hit), or ctx is canceled and s completed with ctx.Err(). Either way
// the run is reported.
func begin(ctx context.Context, st *Store, prog *progress, s Spec) (*entry, Outcome) {
	e, owned := st.claim(s)
	if !owned {
		out := st.wait(e)
		prog.report(s, true, 0, out.Err)
		return nil, out
	}
	if err := ctx.Err(); err != nil {
		out := Outcome{Spec: s, Err: err}
		st.complete(e, out)
		prog.report(s, false, 0, err)
		return nil, out
	}
	return e, Outcome{}
}

// simulate executes s on the calling lane: a baseline when base is nil,
// else a swept run against its completed baseline.
func (r *Runner) simulate(ctx context.Context, st *Store, prog *progress, s Spec, base *Outcome) Outcome {
	e, out := begin(ctx, st, prog, s)
	if e == nil {
		return out
	}
	start := time.Now()
	if base == nil {
		out = r.runBaseline(s)
	} else {
		out = r.ExecSweep(s, *base)
	}
	st.complete(e, out)
	prog.report(s, false, time.Since(start), out.Err)
	return out
}

// sameRun reports whether swept spec s is the very run its baseline b
// was: a perfect wire, and a configuration — the knob applied to the
// Runner's parameters, CPU speed, self-check, instrumentation — equal to
// the baseline's. Compared, never inferred from Value == 0: on a Runner
// whose Params already carry a delta, Δ = 0 is a different machine, and a
// verifying baseline is a different run (six of the ten self-checks
// communicate on the simulated machine).
func (r *Runner) sameRun(s, b Spec) bool {
	params := r.params()
	return !s.Fault.active() && s.App == b.App &&
		s.Config(s.Knob.Apply(params, s.Value)) == b.Config(params)
}

// answer completes a sameRun spec with the outcome ExecSweep would
// simulate for it. A run is a pure function of its configuration, and
// s's configuration is its baseline's apart from a livelock bound 300
// times the run's length, so the baseline's result is s's result —
// shared, not copied.
func answer(ctx context.Context, st *Store, prog *progress, s Spec, base apps.Result) {
	e, _ := begin(ctx, st, prog, s)
	if e == nil {
		return
	}
	out := Outcome{Spec: s, Res: base, Point: core.Point{Value: s.Value, Elapsed: base.Elapsed}}
	if base.Elapsed > 0 { // as core.Measure divides
		out.Point.Slowdown = 1
	}
	st.complete(e, out)
	prog.report(s, true, 0, nil)
}

// runBaseline executes an unmodified-machine run.
func (r *Runner) runBaseline(s Spec) Outcome {
	out := Outcome{Spec: s}
	a, err := r.App(s.App)
	if err != nil {
		out.Err = err
		return out
	}
	res, err := a.Run(s.Config(r.params()))
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

// ExecSweep synchronously executes one design point against its
// already-executed baseline outcome (normally ExecBaseline's result for
// s.BaselineSpec). Like ExecBaseline it is the pool-free executor seam.
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
	cfg := s.Fault.Wire(s.Config(r.params()), base.Res.Elapsed)
	out.Point, out.Res, out.Err = core.Measure(a, cfg, s.Knob, s.Value, base.Res.Elapsed)
	return out
}

// Sweep measures one application across a sequence of settings of one
// knob — the parallel successor of the old serial core.Sweep. The
// baseline run provides the slowdown denominator and livelock bound;
// points execute concurrently on up to jobs workers (0 = GOMAXPROCS).
func Sweep(a apps.App, cfg apps.Config, k core.Knob, points []float64, jobs int) (apps.Result, []core.Point, error) {
	cfg = cfg.Norm()
	p := NewPlan()
	baseSpec := p.AddBaseline(a.Name(), cfg.Procs, cfg.Scale, cfg.Seed, cfg.Verify)
	specs := make([]Spec, len(points))
	for i, v := range points {
		specs[i] = p.AddSweep(Spec{
			App: a.Name(), Procs: cfg.Procs, Scale: cfg.Scale, Seed: cfg.Seed,
			Knob: k, Value: v, CPUSpeedup: cfg.CPUSpeedup,
		}, cfg.Verify)
	}
	r := &Runner{
		Jobs:    jobs,
		Params:  cfg.Params,
		Resolve: func(string) (apps.App, error) { return a, nil },
	}
	st, err := r.Run(p)
	if err != nil {
		return apps.Result{}, nil, err
	}
	base, err := st.Result(baseSpec)
	if err != nil {
		return apps.Result{}, nil, err
	}
	out := make([]core.Point, len(specs))
	for i, s := range specs {
		if out[i], err = st.Point(s); err != nil {
			return base, nil, err
		}
	}
	return base, out, nil
}
