package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/run"
)

// flight is one in-flight resolution of a spec hash. Every concurrent
// request for the same hash waits on the same flight — the
// cross-request twin of run.Store's singleflight.
type flight struct {
	done chan struct{} // closed when out/hit/src are valid
	out  run.Outcome   // for a disk hit, hit.head()
	hit  *entry        // the verified entry behind a disk hit, else nil
	src  string
}

// baseFunc resolves a sweep spec's baseline. Only a miss calls it: the
// baseline's elapsed time is the denominator ExecSweep measures against,
// and a stored point already carries its slowdown.
type baseFunc func() (run.Outcome, error)

// resolve produces the outcome for one spec: from the persistent store,
// by coalescing onto an identical in-flight run, or by executing on the
// shared pool under the client's fair-share queue. hash is spec.Hash(),
// computed once by the caller; base is nil for baselines.
//
// A disk hit's Res carries only Elapsed and Verified — all a minimal
// answer and a sweep's denominator read — and the verified entry comes
// back beside it, its result still the bytes Store wrote; hit is nil
// for anything that was not read from disk.
//
// The returned error is transport-level (queue full, context canceled);
// run-level failures travel inside the outcome's Err. On cancellation
// the underlying run keeps going for any other waiters and still warms
// the cache — cancellation abandons the wait, not the work.
func (s *Server) resolve(ctx context.Context, client string, spec run.Spec, hash string, base baseFunc) (out run.Outcome, hit *entry, src string, err error) {
	f, coalesced := s.fly(client, spec, hash, base, true)
	return s.await(ctx, f, coalesced)
}

// resolveFull decodes a disk hit's result, as a plan's render reads it
// (Store.Result on a Deferred outcome). Stored bytes that pass every
// check of the read and still do not decode are a corrupt entry like
// any other: counted, recomputed without probing the store again, and
// overwritten. src is the recompute's source, or "" when hit decoded.
func (s *Server) resolveFull(ctx context.Context, client string, spec run.Spec, hash string, base baseFunc, hit *entry) (out run.Outcome, src string, err error) {
	for {
		start := time.Now()
		out, err = hit.outcome()
		s.stages.observe("decode", time.Since(start))
		if err == nil {
			return out, src, nil
		}
		s.mu.Lock()
		s.counts.Corrupt++
		s.mu.Unlock()
		f, coalesced := s.fly(client, spec, hash, base, false)
		if out, hit, src, err = s.await(ctx, f, coalesced); err != nil || hit == nil {
			return out, src, err
		}
	}
}

// fly joins the in-flight resolution of a hash or starts one. A started
// flight probes the persistent store first (unless the caller already
// found the entry unusable) and only on a miss resolves the baseline
// and queues the run. It returns as soon as the flight is certain to
// finish on its own.
func (s *Server) fly(client string, spec run.Spec, hash string, base baseFunc, probe bool) (f *flight, coalesced bool) {
	s.mu.Lock()
	if f, ok := s.inflight[hash]; ok {
		s.mu.Unlock()
		return f, true
	}
	f = &flight{done: make(chan struct{})}
	s.inflight[hash] = f
	s.mu.Unlock()

	// Persistent store probe (lazily, outside the lock).
	if probe {
		start := time.Now()
		e, found, err := s.disk.read(hash)
		if found {
			s.stages.observe("load", time.Since(start))
		}
		if err == nil && found {
			s.finish(hash, f, e.head(), &e, SourceDisk)
			return f, false
		}
		if err != nil {
			// A found-but-unreadable entry: recompute and overwrite.
			s.mu.Lock()
			if errors.Is(err, ErrStale) {
				s.counts.Stale++
			} else {
				s.counts.Corrupt++
			}
			s.mu.Unlock()
		}
	}

	var bout run.Outcome
	if base != nil {
		var err error
		if bout, err = base(); err != nil {
			// The baseline was refused (queue full): so is this run, and
			// every waiter on it.
			s.finish(hash, f, run.Outcome{Spec: spec, Err: err}, nil, SourceComputed)
			return f, false
		}
	}
	queued := time.Now()
	submitErr := s.sched.Submit(client, func() {
		started := time.Now()
		s.stages.observe("queue_wait", started.Sub(queued))
		var out run.Outcome
		if spec.IsBaseline() {
			out = s.runner.ExecBaseline(spec)
		} else if base == nil {
			out = run.Outcome{Spec: spec, Err: fmt.Errorf("service: sweep %v resolved without a baseline", spec)}
		} else {
			out = s.runner.ExecSweep(spec, bout)
		}
		stored := time.Now()
		s.stages.observe("execute", stored.Sub(started))
		if out.Err == nil {
			werr := s.disk.Store(out)
			s.stages.observe("persist", time.Since(stored))
			if werr != nil {
				s.mu.Lock()
				s.counts.WriteErrors++
				s.mu.Unlock()
			}
		}
		s.finish(hash, f, out, nil, SourceComputed)
	})
	if submitErr != nil {
		// Backpressure: fail this flight fast so every waiter sees the
		// rejection too (they would hit the same full queue).
		s.finish(hash, f, run.Outcome{Spec: spec, Err: submitErr}, nil, SourceComputed)
	}
	return f, false
}

// finish publishes a flight's outcome and retires it from the in-flight
// table, updating the aggregate counters.
func (s *Server) finish(hash string, f *flight, out run.Outcome, hit *entry, src string) {
	f.out = out
	f.hit = hit
	f.src = src
	s.mu.Lock()
	delete(s.inflight, hash)
	if out.Err == nil {
		switch src {
		case SourceDisk:
			s.counts.DiskHits++
		case SourceComputed:
			s.counts.Computed++
		}
	} else if !errors.Is(out.Err, ErrQueueFull) {
		s.counts.RunErrors++
	} else {
		s.counts.Rejected++
	}
	s.mu.Unlock()
	close(f.done)
}

// await blocks on a flight until it completes or the context dies.
func (s *Server) await(ctx context.Context, f *flight, coalesced bool) (run.Outcome, *entry, string, error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		return run.Outcome{}, nil, "", ctx.Err()
	}
	src := f.src
	if coalesced {
		s.mu.Lock()
		s.counts.Coalesced++
		s.mu.Unlock()
		src = SourceCoalesced
	}
	if f.out.Err != nil && errors.Is(f.out.Err, ErrQueueFull) {
		return run.Outcome{}, nil, "", f.out.Err
	}
	return f.out, f.hit, src, nil
}

// planResult is everything executePlan learned about a plan.
type planResult struct {
	store   *run.Store
	sources map[string]string // spec hash → resolution source
	counts  CacheCounts
}

// executePlan resolves every run of a plan through the cache and the
// shared pool on run.Execute's dependency-ordered lanes, one lane per
// spec (the Scheduler bounds what actually executes): a baseline starts
// at once, and a swept spec as soon as its own baseline is resolved —
// its denominator when it has to be computed. A swept spec whose
// baseline failed or was refused fails with that error and is never
// queued. Every Δ = 0 point resolves under its own address: a disk-hit
// baseline carries only its head, nothing to answer the point from.
// onEvent, when non-nil, observes every resolution, one call at a time.
//
// A disk hit enters the store as its head, Deferred: only a render
// that asks Store.Result for it decodes its result (resolveFull), once,
// and a recompute that decode triggers is counted as the spec's source.
// A head carries no event count, so run.Execute ranks the sweep of a
// disk-hit baseline as if it executed none.
//
// The returned error is the request's cancellation, or else the first
// failure in plan order: a run's error, or a refusal such as
// ErrQueueFull.
func (s *Server) executePlan(ctx context.Context, client string, p *run.Plan, onEvent func(PlanEvent)) (*planResult, error) {
	pr := &planResult{store: run.NewStore(), sources: make(map[string]string, p.Size())}
	pr.counts.Total = p.Size()
	var mu sync.Mutex // guards sources and counts
	counter := func(src string) *int {
		switch src {
		case SourceDisk:
			return &pr.counts.DiskHits
		case SourceComputed:
			return &pr.counts.Computed
		}
		return &pr.counts.Coalesced
	}
	exec := func(ctx context.Context, sp run.Spec, base *run.Outcome) (run.Outcome, bool) {
		var bf baseFunc
		if base != nil {
			if base.Err != nil {
				return run.Outcome{Spec: sp, Err: base.Err}, false
			}
			bf = func() (run.Outcome, error) { return *base, nil }
		}
		hash := sp.Hash()
		out, hit, src, err := s.resolve(ctx, client, sp, hash, bf)
		if err != nil {
			return run.Outcome{Spec: sp, Err: err}, false
		}
		mu.Lock()
		pr.sources[hash] = src
		*counter(src)++
		mu.Unlock()
		if hit == nil {
			return out, false
		}
		return run.Deferred(out, func() (apps.Result, error) {
			full, fullSrc, err := s.resolveFull(ctx, client, sp, hash, bf, hit)
			if fullSrc != "" {
				mu.Lock()
				pr.sources[hash] = fullSrc
				*counter(src)--
				*counter(fullSrc)++
				mu.Unlock()
			}
			if err == nil {
				err = full.Err
			}
			return full.Res, err
		}), false
	}
	var onProgress func(run.Progress)
	if onEvent != nil {
		onProgress = func(pg run.Progress) {
			ev := PlanEvent{Done: pg.Done, Total: pg.Total, Spec: pg.Spec.String(), Hash: pg.Spec.Hash(), WallUs: pg.Wall.Microseconds()}
			mu.Lock()
			ev.Source = pr.sources[ev.Hash]
			mu.Unlock()
			if pg.Err != nil {
				ev.Err = pg.Err.Error()
			}
			onEvent(ev)
		}
	}
	return pr, run.Execute(ctx, pr.store, p, p.Size(), onProgress, exec)
}
