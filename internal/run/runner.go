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
	// Cached is true when the run was already in the store (a shared run
	// another experiment declared, or a duplicate claimed in flight).
	Cached bool
	// Wall is the real time the run took (zero when cached).
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
// counting as cache hits) any runs the store already holds. Baselines
// run first — they provide every swept run's slowdown denominator and
// livelock bound — then all swept runs, each wave on the bounded pool.
func (r *Runner) RunInto(st *Store, p *Plan) error {
	return r.RunIntoContext(context.Background(), st, p)
}

// RunIntoContext is RunInto with cancellation. A simulation already
// executing when ctx is canceled runs to completion (the simulator has
// no preemption points — a run is one synchronous computation), but no
// further run starts: every remaining claimed spec completes immediately
// with ctx.Err() so concurrent waiters never hang, the worker pool
// drains, and the call returns ctx.Err(). Specs the canceled plan never
// claimed stay absent from the store and can be claimed by a later plan.
func (r *Runner) RunIntoContext(ctx context.Context, st *Store, p *Plan) error {
	var baselines, sweeps []Spec
	for _, s := range p.Specs() {
		if s.IsBaseline() {
			baselines = append(baselines, s)
		} else {
			sweeps = append(sweeps, s)
		}
	}
	prog := &progress{total: p.Size(), fn: r.OnProgress}
	r.wave(ctx, st, baselines, prog, func(s Spec) Outcome { return r.runBaseline(s) })
	r.wave(ctx, st, sweeps, prog, func(s Spec) Outcome { return r.runSweep(st, p, s) })
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, s := range p.Specs() {
		if out, ok := st.Get(s); ok && out.Err != nil {
			return fmt.Errorf("run: %v: %w", s, out.Err)
		}
	}
	return nil
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

// wave runs one batch of specs on the worker pool. After ctx is
// canceled, remaining specs are still claimed but complete immediately
// with ctx.Err() instead of executing, so every store waiter unblocks.
func (r *Runner) wave(ctx context.Context, st *Store, specs []Spec, prog *progress, exec func(Spec) Outcome) {
	if len(specs) == 0 {
		return
	}
	jobs := r.jobs()
	if jobs > len(specs) {
		jobs = len(specs)
	}
	work := make(chan Spec)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				e, owned := st.claim(s)
				if !owned {
					out := st.wait(e)
					prog.report(s, true, 0, out.Err)
					continue
				}
				if err := ctx.Err(); err != nil {
					out := Outcome{Spec: s, Err: err}
					st.complete(e, out)
					prog.report(s, false, 0, err)
					continue
				}
				start := time.Now()
				out := exec(s)
				st.complete(e, out)
				prog.report(s, false, time.Since(start), out.Err)
			}
		}()
	}
	for _, s := range specs {
		work <- s
	}
	close(work)
	wg.Wait()
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

// runSweep executes one design point against its completed baseline.
func (r *Runner) runSweep(st *Store, p *Plan, s Spec) Outcome {
	base, ok := p.BaselineOf(s)
	if !ok {
		return Outcome{Spec: s, Err: fmt.Errorf("run: %v has no declared baseline (use Plan.AddSweep)", s)}
	}
	baseOut, ok := st.Get(base)
	if !ok {
		return Outcome{Spec: s, Err: fmt.Errorf("run: baseline %v missing from store", base)}
	}
	return r.ExecSweep(s, baseOut)
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
