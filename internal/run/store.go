package run

import (
	"fmt"
	"sync"

	"repro/internal/apps"
	"repro/internal/core"
)

// Outcome is the recorded result of one executed Spec.
type Outcome struct {
	Spec Spec
	// Res is the full application result: always populated for baseline
	// runs, and for swept runs that completed (zero when livelocked).
	// Read-only: a swept run answered from its baseline (see
	// Runner.RunInto) shares the baseline's Stats, Extra, Profile, Graph
	// and Curves rather than copying them. In a Deferred outcome it holds
	// only Elapsed and Verified; Store.Result loads the rest.
	Res apps.Result
	// Point is the design-point measurement (slowdown, livelock flag);
	// for baseline runs it is the trivial Value=0, Slowdown=1 point.
	Point core.Point
	// Err reports a failed run (configuration or simulator errors;
	// livelock is not an error — see Point.Livelocked).
	Err error

	// load fetches the full result of a Deferred outcome; nil when Res
	// is already complete.
	load func() (apps.Result, error)
}

// Deferred returns out, whose Res holds only Elapsed and Verified, with
// its full result left to load: a Store holding it calls load the first
// time Result asks for the spec, and never for Get or Point.
func Deferred(out Outcome, load func() (apps.Result, error)) Outcome {
	out.load = load
	return out
}

// Store collects outcomes keyed by canonical Spec. It is safe for
// concurrent use: workers claim a spec before executing it, so a spec
// requested by several experiments — or by two overlapping plans running
// at once — executes exactly once (singleflight) while every other
// requester blocks on the in-flight entry.
type Store struct {
	mu       sync.Mutex
	entries  map[Spec]*entry
	executed int
	hits     int
}

type entry struct {
	done chan struct{} // closed when out is valid
	out  Outcome

	full    sync.Once // runs out.load, for a Deferred outcome
	res     apps.Result
	loadErr error
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{entries: map[Spec]*entry{}}
}

// claim registers s for execution. The second result is true when the
// caller owns the run and must call complete; false when another worker
// already executed or is executing it.
func (st *Store) claim(s Spec) (*entry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.entries[s]; ok {
		st.hits++
		return e, false
	}
	e := &entry{done: make(chan struct{})}
	st.entries[s] = e
	st.executed++
	return e, true
}

// complete publishes the outcome of a claimed entry.
func (st *Store) complete(e *entry, out Outcome) {
	e.out = out
	close(e.done)
}

// wait blocks until the entry's outcome is published.
func (st *Store) wait(e *entry) Outcome {
	<-e.done
	return e.out
}

// Get returns the completed outcome for a spec, blocking if the run is
// still in flight. The second result is false when the spec was never
// planned. A Deferred outcome comes back as it was completed: its Res
// is not loaded.
func (st *Store) Get(s Spec) (Outcome, bool) {
	e, ok := st.lookup(s)
	if !ok {
		return Outcome{}, false
	}
	return st.wait(e), true
}

// lookup finds a spec's entry, complete or not.
func (st *Store) lookup(s Spec) (*entry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[s.norm()]
	return e, ok
}

// Result returns the full application result for a spec, with a
// descriptive error when the run was never planned or failed. A
// Deferred outcome's result is loaded on the first call, and that
// result or its error is every later call's answer.
func (st *Store) Result(s Spec) (apps.Result, error) {
	e, ok := st.lookup(s)
	if !ok {
		return apps.Result{}, fmt.Errorf("run: %v was not in the executed plan", s.norm())
	}
	out := st.wait(e)
	switch {
	case out.Err != nil:
		return apps.Result{}, out.Err
	case out.load == nil:
		return out.Res, nil
	}
	e.full.Do(func() { e.res, e.loadErr = out.load() })
	return e.res, e.loadErr
}

// Point returns the design-point measurement for a spec. It never loads
// a Deferred outcome's result.
func (st *Store) Point(s Spec) (core.Point, error) {
	out, ok := st.Get(s)
	if !ok {
		return core.Point{}, fmt.Errorf("run: %v was not in the executed plan", s.norm())
	}
	if out.Err != nil {
		return core.Point{}, out.Err
	}
	return out.Point, nil
}

// Stats reports how many runs the store's plans completed themselves
// (simulated, or answered from a baseline) and how many requests were
// served from an already-claimed entry (cache hits).
func (st *Store) Stats() (executed, hits int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.executed, st.hits
}
