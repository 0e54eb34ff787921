package run

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sim"
)

// slowApp counts its executions and cancels a context partway through a
// plan, standing in for a client that disconnects mid-sweep.
type slowApp struct {
	runs   atomic.Int64
	cancel context.CancelFunc
	after  int64
}

func (a *slowApp) Name() string                     { return "slow" }
func (a *slowApp) PaperName() string                { return "Slow" }
func (a *slowApp) Description() string              { return "test app" }
func (a *slowApp) InputDesc(cfg apps.Config) string { return "none" }
func (a *slowApp) Run(cfg apps.Config) (apps.Result, error) {
	n := a.runs.Add(1)
	if a.cancel != nil && n == a.after {
		a.cancel()
	}
	return apps.Result{App: "slow", Procs: cfg.Procs, Elapsed: sim.Time(1000)}, nil
}

func ctxTestPlan(points int) *Plan {
	p := NewPlan()
	for i := 0; i < points; i++ {
		p.AddSweep(Spec{App: "slow", Procs: 2, Scale: 1, Seed: 1, Knob: core.KnobO, Value: float64(i + 1)}, false)
	}
	return p
}

// TestRunIntoContextCancel proves a canceled plan drains without
// leaking workers or hanging store waiters: the call returns ctx.Err(),
// every claimed spec completes (with the run's result or ctx.Err()),
// and runs stop shortly after cancellation.
func TestRunIntoContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	app := &slowApp{cancel: cancel, after: 1} // cancel during the first run
	r := &Runner{
		Jobs:    1, // serial pool: cancellation lands before later specs start
		Resolve: func(string) (apps.App, error) { return app, nil },
	}
	p := ctxTestPlan(8)
	st := NewStore()
	err := r.RunIntoContext(ctx, st, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunIntoContext = %v, want context.Canceled", err)
	}
	// The baseline ran (it triggered the cancel); every spec the wave
	// claimed afterwards must still be complete — Get must not block and
	// must carry ctx.Err().
	ran := app.runs.Load()
	if ran >= int64(p.Size()) {
		t.Fatalf("all %d runs executed despite cancellation", ran)
	}
	canceled := 0
	for _, s := range p.Specs() {
		out, ok := st.Get(s) // must not hang
		if !ok {
			continue
		}
		if errors.Is(out.Err, context.Canceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatalf("no claimed spec completed with context.Canceled (ran=%d)", ran)
	}
}

// TestRunContextUncanceled proves the ctx path is the plain path when
// the context stays live.
func TestRunContextUncanceled(t *testing.T) {
	app := &slowApp{}
	r := &Runner{Jobs: 2, Resolve: func(string) (apps.App, error) { return app, nil }}
	st := NewStore()
	if err := r.RunIntoContext(context.Background(), st, ctxTestPlan(3)); err != nil {
		t.Fatalf("RunIntoContext: %v", err)
	}
	for _, want := range []float64{1, 2, 3} {
		s := Spec{App: "slow", Procs: 2, Scale: 1, Seed: 1, Knob: core.KnobO, Value: want}
		if _, err := st.Point(s); err != nil {
			t.Fatalf("point %g: %v", want, err)
		}
	}
}
