package run

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Exec produces one spec of a plan for Execute: a baseline when base is
// nil, else a swept run measured against its completed baseline's
// outcome. answered reports that the spec was produced without running
// it; Execute then reports it as Progress{Cached: true} with no wall
// time. ctx is Execute's, for an Exec that waits on something it can
// abandon.
type Exec func(ctx context.Context, s Spec, base *Outcome) (out Outcome, answered bool)

// Execute runs a plan into st on up to lanes concurrent lanes, in
// dependency order, and is the one scheduler behind Runner.RunInto and
// the service daemon's plans. A baseline provides its swept runs'
// slowdown denominator and livelock bound, so a swept run becomes
// runnable when its own baseline has completed — not when every baseline
// has. A free lane takes the next baseline in plan order while one is
// unstarted, otherwise the runnable swept run whose baseline executed
// the most events (the largest known work first, so the long runs do not
// start last; ties in plan order), and blocks only when nothing is
// runnable. A spec st already holds is not produced again (a store hit,
// reported as cached). onProgress, when non-nil, observes every
// completed spec, one call at a time.
//
// Canceling ctx starts no further exec: every remaining spec is still
// claimed and completes immediately with ctx.Err() — the dependents of
// an executing baseline as soon as it returns — so concurrent waiters
// never hang, the lanes drain, and Execute returns ctx.Err(). Otherwise
// it returns the first failed spec in plan order (every spec still
// completes, so partial results remain inspectable through st).
func Execute(ctx context.Context, st *Store, p *Plan, lanes int, onProgress func(Progress), exec Exec) error {
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
	prog := &progress{total: p.Size(), fn: onProgress}
	var wg sync.WaitGroup
	for lanes = min(lanes, p.Size()); lanes > 0; lanes-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s, base, ok := q.take()
				if !ok {
					return
				}
				out := produce(ctx, st, prog, exec, s, base)
				if base == nil {
					// A baseline completed: its sweep is runnable (at once
					// and in vain when the baseline failed).
					q.release(group{base: &out, specs: q.deps[s]})
				}
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

// release makes a completed baseline's sweep runnable and stops counting
// it as waiting.
func (q *queue) release(g group) {
	q.mu.Lock()
	if len(g.specs) > 0 {
		q.ready = append(q.ready, g)
	}
	q.waiting -= len(g.specs)
	q.mu.Unlock()
	q.cond.Broadcast()
}

// progress serializes onProgress calls and the done count.
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

// produce claims s for this plan, completes it and reports it. It calls
// exec unless there is nothing left to do: another plan holds s (a store
// hit, whose outcome produce waits for), or ctx is canceled (s completes
// with ctx.Err()).
func produce(ctx context.Context, st *Store, prog *progress, exec Exec, s Spec, base *Outcome) Outcome {
	e, owned := st.claim(s)
	if !owned {
		out := st.wait(e)
		prog.report(s, true, 0, out.Err)
		return out
	}
	if err := ctx.Err(); err != nil {
		out := Outcome{Spec: s, Err: err}
		st.complete(e, out)
		prog.report(s, false, 0, err)
		return out
	}
	start := time.Now()
	out, answered := exec(ctx, s, base)
	wall := time.Since(start)
	st.complete(e, out)
	if answered {
		wall = 0
	}
	prog.report(s, answered, wall, out.Err)
	return out
}
