package run

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/suite"
	"repro/internal/core"
)

// countingApp counts the simulations of the app it wraps.
type countingApp struct {
	apps.App
	runs atomic.Int64
}

func (a *countingApp) Run(cfg apps.Config) (apps.Result, error) {
	a.runs.Add(1)
	return a.App.Run(cfg)
}

// TestAnsweredPointIsTheSimulatedPoint is the identity the pool rests
// on, measured rather than assumed: for every suite application, the
// outcome the pool gives a Δ = 0 point without simulating it is the
// outcome ExecSweep simulates for the same spec — the point, and the
// whole result down to the per-processor counters.
func TestAnsweredPointIsTheSimulatedPoint(t *testing.T) {
	for _, a := range suite.All() {
		t.Run(a.Name(), func(t *testing.T) {
			app := &countingApp{App: a}
			r := &Runner{Jobs: 2, Resolve: func(string) (apps.App, error) { return app, nil }}
			p := NewPlan()
			var specs []Spec
			for _, k := range []core.Knob{core.KnobO, core.KnobG, core.KnobL} {
				specs = append(specs, p.AddSweep(Spec{App: a.Name(), Procs: 4, Scale: 0.0001, Seed: 31, Knob: k}, false))
			}
			r.OnProgress = func(pr Progress) {
				if !pr.Spec.IsBaseline() && (!pr.Cached || pr.Wall != 0) {
					t.Errorf("%v reported Cached=%v Wall=%v, want an answered point", pr.Spec, pr.Cached, pr.Wall)
				}
			}
			st, err := r.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if n := app.runs.Load(); n != 1 {
				t.Fatalf("the plan simulated %d runs, want 1 (the baseline)", n)
			}
			base, _ := st.Get(specs[0].BaselineSpec(false))
			for _, s := range specs {
				got, _ := st.Get(s)
				want := r.ExecSweep(s, base)
				if want.Err != nil {
					t.Fatal(want.Err)
				}
				if got.Spec != want.Spec || got.Err != nil || got.Point != want.Point {
					t.Errorf("%v: answered {%v %+v %v}, simulated {%v %+v}", s, got.Spec, got.Point, got.Err, want.Spec, want.Point)
				}
				if !reflect.DeepEqual(got.Res, want.Res) {
					t.Errorf("%v: the answered result differs from the simulated one:\n%+v\n%+v", s, got.Res, want.Res)
				}
			}
			if n := app.runs.Load(); n != 4 {
				t.Errorf("ExecSweep simulated %d of 3 Δ = 0 specs", n-1)
			}
		})
	}
}

// TestOtherRunsSimulate holds the other side of the identity: a swept
// run is answered only when the configuration it runs is its
// baseline's. Most of these look like a zero point and are not one.
func TestOtherRunsSimulate(t *testing.T) {
	spec := func(k core.Knob, v float64) Spec {
		return Spec{App: "radix", Procs: 4, Scale: 0.0001, Seed: 31, Knob: k, Value: v}
	}
	cpu := spec(core.KnobO, 0)
	cpu.CPUSpeedup = 2
	faulted := spec(core.KnobO, 0)
	faulted.Fault = FaultSpec{Reliable: true}
	for _, c := range []struct {
		name     string
		spec     Spec
		verify   bool // the baseline's self-check
		answered bool
	}{
		{"Δo=0 on the NOW", spec(core.KnobO, 0), false, true},
		{"bandwidth 0 on the NOW", spec(core.KnobBW, 0), false, true},
		{"faster CPU", cpu, false, false},
		{"reliable wire", faulted, false, false},
		// radix's self-check sends messages: the verified baseline is a
		// longer run than the point measured against it.
		{"Δo=0 against a verifying baseline", spec(core.KnobO, 0), true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, err := suite.ByName("radix")
			if err != nil {
				t.Fatal(err)
			}
			app := &countingApp{App: a}
			r := &Runner{Jobs: 1, Resolve: func(string) (apps.App, error) { return app, nil }}
			p := NewPlan()
			s := p.AddSweep(c.spec, c.verify)
			st, err := r.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if answered := app.runs.Load() == 1; answered != c.answered {
				t.Fatalf("%d simulations: answered = %v, want %v", app.runs.Load(), answered, c.answered)
			}
			got, _ := st.Get(s)
			base, _ := st.Get(s.BaselineSpec(c.verify))
			want := r.ExecSweep(s, base)
			if got.Point != want.Point || !reflect.DeepEqual(got.Res, want.Res) {
				t.Errorf("pool %+v, ExecSweep %+v", got.Point, want.Point)
			}
			if c.verify && got.Point.Slowdown == 1 {
				t.Errorf("the point is as long as its verifying baseline: %+v", got.Point)
			}
		})
	}
}

// TestFailedBaselineFailsItsZeroPoint: a failed baseline answers nothing;
// its Δ = 0 point gets the error ExecSweep gives it, not a slowdown of 1.
func TestFailedBaselineFailsItsZeroPoint(t *testing.T) {
	boom := errors.New("boom")
	r := &Runner{Jobs: 2, Resolve: func(string) (apps.App, error) { return failingApp{err: boom}, nil }}
	p := NewPlan()
	s := p.AddSweep(testSpec(0), false)
	st, err := r.Run(p)
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the baseline's error", err)
	}
	got, _ := st.Get(s)
	base, _ := st.Get(s.BaselineSpec(false))
	want := r.ExecSweep(s, base)
	if !errors.Is(got.Err, boom) || got.Err.Error() != want.Err.Error() || got.Point != (core.Point{}) {
		t.Errorf("answered {%+v %v}, ExecSweep says %v", got.Point, got.Err, want.Err)
	}
}

// failingApp resolves like any app and fails every run with err.
type failingApp struct {
	apps.App
	err error
}

func (a failingApp) Name() string                         { return "failing" }
func (a failingApp) Run(apps.Config) (apps.Result, error) { return apps.Result{}, a.err }

// gatedApp is a fake application whose runs log when they start and
// end, report a chosen event count, and wait for a gate when one is set
// for them. A run is named app/base or app/Δo.
type gatedApp struct {
	name   string
	events int64
	sched  *gatedSched
}

type gatedSched struct {
	mu      sync.Mutex
	log     []string
	started chan string              // every run announces itself here
	gates   map[string]chan struct{} // a run with a gate waits for its close
}

func newGatedSched(gated ...string) *gatedSched {
	g := &gatedSched{started: make(chan string, 64), gates: map[string]chan struct{}{}}
	for _, name := range gated {
		g.gates[name] = make(chan struct{})
	}
	return g
}

func (g *gatedSched) note(ev string) {
	g.mu.Lock()
	g.log = append(g.log, ev)
	g.mu.Unlock()
}

// pos is the position of an event in the log, -1 when it never happened.
func (g *gatedSched) pos(ev string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, e := range g.log {
		if e == ev {
			return i
		}
	}
	return -1
}

func (g *gatedSched) resolve(events map[string]int64) func(string) (apps.App, error) {
	return func(name string) (apps.App, error) {
		return &gatedApp{name: name, events: events[name], sched: g}, nil
	}
}

// await fails the test unless the named runs are the next to start, in
// any order.
func (g *gatedSched) await(t *testing.T, want ...string) {
	t.Helper()
	left := map[string]bool{}
	for _, w := range want {
		left[w] = true
	}
	for len(left) > 0 {
		got := <-g.started
		if !left[got] {
			t.Fatalf("%s started, want one of %v", got, want)
		}
		delete(left, got)
	}
}

func (a *gatedApp) Name() string                 { return a.name }
func (a *gatedApp) PaperName() string            { return a.name }
func (a *gatedApp) Description() string          { return "test app" }
func (a *gatedApp) InputDesc(apps.Config) string { return "none" }
func (a *gatedApp) Run(cfg apps.Config) (apps.Result, error) {
	run := a.name + "/base"
	if cfg.TimeLimit != 0 { // only swept runs carry a livelock bound
		run = fmt.Sprintf("%s/%g", a.name, cfg.Params.DeltaO.Micros())
	}
	a.sched.note("start " + run)
	a.sched.started <- run
	if gate := a.sched.gates[run]; gate != nil {
		<-gate
	}
	a.sched.note("end " + run)
	return apps.Result{App: a.name, Procs: cfg.Procs, Elapsed: 1000,
		Sched: apps.SchedCounters{EventsRun: a.events}}, nil
}

func gatedSpec(app string, deltaO float64) Spec {
	return Spec{App: app, Procs: 2, Scale: 1, Seed: 1, Knob: core.KnobO, Value: deltaO}
}

// TestSweepStartsWhenItsOwnBaselineIsDone: with b's baseline held open,
// a's swept run starts anyway (the two waves are gone), and b's does not
// start until b's baseline has returned.
func TestSweepStartsWhenItsOwnBaselineIsDone(t *testing.T) {
	g := newGatedSched("b/base")
	r := &Runner{Jobs: 2, Resolve: g.resolve(nil)}
	p := NewPlan()
	p.AddSweep(gatedSpec("a", 5), false)
	p.AddSweep(gatedSpec("b", 5), false)
	done := make(chan error, 1)
	go func() { done <- r.RunInto(NewStore(), p) }()

	// a/5 starts with b/base still at its gate (the two lanes announce
	// themselves in either order).
	g.await(t, "a/base", "b/base", "a/5")
	if g.pos("end b/base") >= 0 {
		t.Fatal("b's baseline returned before its gate opened")
	}
	close(g.gates["b/base"])
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"a", "b"} {
		end, start := g.pos("end "+app+"/base"), g.pos("start "+app+"/5")
		if end < 0 || start < end {
			t.Errorf("%s: swept run started at %d, its baseline ended at %d\n%v", app, start, end, g.log)
		}
	}
}

// TestMostEventsFirst: of the runnable swept runs a lane takes the one
// whose baseline executed the most events, and plan order breaks ties.
func TestMostEventsFirst(t *testing.T) {
	g := newGatedSched()
	r := &Runner{Jobs: 1, Resolve: g.resolve(map[string]int64{"small": 10, "big": 1000, "big2": 1000})}
	p := NewPlan()
	for _, app := range []string{"small", "big", "big2"} {
		p.AddSweep(gatedSpec(app, 5), false)
		p.AddSweep(gatedSpec(app, 9), false)
	}
	if err := r.RunInto(NewStore(), p); err != nil {
		t.Fatal(err)
	}
	var starts []string
	for _, ev := range g.log {
		if len(ev) > 6 && ev[:6] == "start " {
			starts = append(starts, ev[6:])
		}
	}
	want := []string{"small/base", "big/base", "big2/base", "big/5", "big/9", "big2/5", "big2/9", "small/5", "small/9"}
	if !reflect.DeepEqual(starts, want) {
		t.Errorf("runs started in the order\n%v, want\n%v", starts, want)
	}
}

// TestCancelWhileDependentsWait cancels a plan whose only baseline is
// still executing, with one lane idle and three dependents — one of them
// a Δ = 0 point — waiting on it. The baseline finishes; every dependent
// completes with ctx.Err(); the call returns ctx.Err() with its lanes
// gone.
func TestCancelWhileDependentsWait(t *testing.T) {
	before := runtime.NumGoroutine()
	g := newGatedSched("a/base")
	r := &Runner{Jobs: 2, Resolve: g.resolve(nil)}
	p := NewPlan()
	deps := []Spec{
		p.AddSweep(gatedSpec("a", 0), false),
		p.AddSweep(gatedSpec("a", 5), false),
		p.AddSweep(gatedSpec("a", 9), false),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	helper := make(chan struct{})
	go func() {
		defer close(helper)
		<-g.started // a/base is executing
		cancel()
		close(g.gates["a/base"])
	}()
	st := NewStore()
	if err := r.RunIntoContext(ctx, st, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunIntoContext = %v, want context.Canceled", err)
	}
	<-helper
	if base, ok := st.Get(deps[0].BaselineSpec(false)); !ok || base.Err != nil || base.Res.Elapsed != 1000 {
		t.Errorf("the executing baseline completed with %+v, %v; want its own result", base, ok)
	}
	for _, s := range deps {
		out, ok := st.Get(s) // must not hang
		if !ok || !errors.Is(out.Err, context.Canceled) {
			t.Errorf("%v completed with %v (claimed %v), want context.Canceled", s, out.Err, ok)
		}
	}
	if n := len(g.log); n != 2 {
		t.Errorf("runs after the cancel: %v", g.log)
	}
	// wg.Done is a lane's last statement, not its exit: give the
	// scheduler the turns it needs, and no more than a leak would take.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the plan, %d after", before, runtime.NumGoroutine())
		}
	}
}
