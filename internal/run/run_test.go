package run

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/splitc"
)

func testSpec(v float64) Spec {
	return Spec{App: "radix", Procs: 4, Scale: 0.0003, Seed: 1, Knob: core.KnobO, Value: v}
}

func TestSpecNormalization(t *testing.T) {
	// CPUSpeedup 1 and 0 are the same run, and so are seeds 0 and 1 (the
	// apps' default); swept specs never verify; baselines carry no knob
	// value. A negative CPU factor is never applied: the machine's own speed.
	for _, c := range []struct{ a, b Spec }{
		{
			Spec{App: "radix", Procs: 4, Scale: 0.5, Seed: 0, Knob: core.KnobO, Value: 10, Verify: true, CPUSpeedup: 1},
			Spec{App: "radix", Procs: 4, Scale: 0.5, Seed: 1, Knob: core.KnobO, Value: 10},
		},
		{
			Spec{App: "radix", Procs: 4, Scale: 0.5, Seed: 1, Knob: core.KnobO, Value: 10, CPUSpeedup: -1},
			Spec{App: "radix", Procs: 4, Scale: 0.5, Seed: 1, Knob: core.KnobO, Value: 10},
		},
	} {
		if c.a.norm() != c.b.norm() {
			t.Errorf("%+v and %+v should normalize equal", c.a.norm(), c.b.norm())
		}
	}
	base := Spec{App: "radix", Procs: 4, Scale: 0.5, Seed: 1, Knob: core.KnobNone, Value: 99}.norm()
	if base.Value != 0 || !base.IsBaseline() {
		t.Errorf("baseline did not drop its value: %+v", base)
	}
}

func TestPlanDedupAndDependencies(t *testing.T) {
	p := NewPlan()
	s := p.AddSweep(testSpec(10), false)
	p.AddSweep(testSpec(10), false) // duplicate
	p.AddSweep(testSpec(50), false)
	// 2 sweeps + 1 shared baseline.
	if p.Size() != 3 {
		t.Fatalf("plan size = %d, want 3", p.Size())
	}
	if p.Adds() <= p.Size() {
		t.Errorf("Adds() = %d, want > Size() for a deduplicated plan", p.Adds())
	}
	b, ok := p.BaselineOf(s)
	if !ok || !b.IsBaseline() || b.App != "radix" {
		t.Fatalf("BaselineOf = %+v, %v", b, ok)
	}

	// A second experiment's sweeps land in the same plan: a shared point
	// is declared once, a new one gets its baseline dependency.
	adds := p.Adds()
	p.AddSweep(testSpec(10), false) // shared
	p.AddSweep(testSpec(100), false)
	// baseline + {10, 50, 100}.
	if p.Size() != 4 {
		t.Errorf("combined size = %d, want 4", p.Size())
	}
	if got := p.Adds() - adds; got != 4 {
		t.Errorf("two more sweeps counted %d adds, want 4 (each declares its baseline)", got)
	}
	if _, ok := p.BaselineOf(testSpec(100)); !ok {
		t.Error("the added sweep has no baseline dependency")
	}
}

func TestRunnerExecutesPlan(t *testing.T) {
	p := NewPlan()
	specs := []Spec{
		p.AddSweep(testSpec(0), false),
		p.AddSweep(testSpec(10), false),
		p.AddSweep(testSpec(50), false),
	}
	var mu sync.Mutex
	var events []Progress
	r := &Runner{Jobs: 4, OnProgress: func(pr Progress) {
		mu.Lock()
		events = append(events, pr)
		mu.Unlock()
	}}
	st, err := r.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	base, err := st.Result(specs[0].BaselineSpec(false))
	if err != nil {
		t.Fatal(err)
	}
	if base.Elapsed == 0 {
		t.Fatal("zero baseline")
	}
	var prev float64
	for _, s := range specs {
		pt, err := st.Point(s)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Slowdown <= prev {
			t.Errorf("slowdown not increasing at Δo=%g: %v after %v", s.Value, pt.Slowdown, prev)
		}
		prev = pt.Slowdown
	}
	if len(events) != p.Size() {
		t.Errorf("progress reported %d runs, want %d", len(events), p.Size())
	}
	last := events[len(events)-1]
	if last.Done != p.Size() || last.Total != p.Size() {
		t.Errorf("final progress = %d/%d, want %d/%d", last.Done, last.Total, p.Size(), p.Size())
	}
}

func TestStoreSingleflightAcrossPlans(t *testing.T) {
	p := NewPlan()
	p.AddSweep(testSpec(10), false)
	r := &Runner{Jobs: 2}
	st, err := r.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	executed, hits := st.Stats()
	if executed != 2 || hits != 0 {
		t.Fatalf("first plan: executed %d, hits %d", executed, hits)
	}
	// A second, overlapping plan against the same store executes only the
	// new design point.
	q := NewPlan()
	q.AddSweep(testSpec(10), false)
	q.AddSweep(testSpec(50), false)
	if err := r.RunInto(st, q); err != nil {
		t.Fatal(err)
	}
	executed, hits = st.Stats()
	if executed != 3 {
		t.Errorf("executed %d runs total, want 3 (baseline, Δo=10, Δo=50)", executed)
	}
	if hits != 2 {
		t.Errorf("hits = %d, want 2 (shared baseline and Δo=10)", hits)
	}
}

// TestRunnerReportsUnknownApp: a plan naming an app the Runner cannot
// resolve is refused whole, naming the app, and runs nothing.
func TestRunnerReportsUnknownApp(t *testing.T) {
	p := NewPlan()
	p.AddBaseline("no-such-app", 4, 0.0003, 1, false)
	st, err := (&Runner{}).Run(p)
	if err == nil || !strings.Contains(err.Error(), "no-such-app") {
		t.Fatalf("unknown app: err = %v, want a refusal naming it", err)
	}
	if executed, _ := st.Stats(); executed != 0 {
		t.Errorf("a refused plan executed %d runs", executed)
	}
}

// TestStoreDeferredLoadsOnce: a Deferred outcome's result is loaded by
// the first Result asking for it, and by nothing else — not Get, not
// Point, not a second or concurrent Result — and a failed load is every
// later answer.
func TestStoreDeferredLoadsOnce(t *testing.T) {
	full := apps.Result{App: "radix", Procs: 4, Elapsed: 1000, Verified: true}
	loadErr := errors.New("undecodable")
	var mu sync.Mutex
	loads := map[Spec]int{}
	exec := func(_ context.Context, s Spec, _ *Outcome) (Outcome, bool) {
		head := Outcome{Spec: s, Point: core.Point{Value: s.Value, Slowdown: 1}, Res: apps.Result{Elapsed: full.Elapsed, Verified: true}}
		return Deferred(head, func() (apps.Result, error) {
			mu.Lock()
			loads[s]++
			mu.Unlock()
			if s.IsBaseline() {
				return apps.Result{}, loadErr
			}
			return full, nil
		}), false
	}
	p := NewPlan()
	pt := p.AddSweep(testSpec(10), false)
	base, _ := p.BaselineOf(pt)
	st := NewStore()
	if err := Execute(context.Background(), st, p, 2, nil, exec); err != nil {
		t.Fatal(err)
	}
	if out, ok := st.Get(pt); !ok || out.Res.Elapsed != full.Elapsed || out.Res.App != "" {
		t.Errorf("Get = %+v, %v; want the head as completed", out, ok)
	}
	if point, err := st.Point(pt); err != nil || point.Slowdown != 1 {
		t.Errorf("Point = %+v, %v", point, err)
	}
	if len(loads) != 0 {
		t.Fatalf("Get and Point loaded %v", loads)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := st.Result(pt); err != nil || res.App != full.App || res.Procs != full.Procs {
				t.Errorf("Result(point) = %+v, %v; want the loaded result", res, err)
			}
			if _, err := st.Result(base); !errors.Is(err, loadErr) {
				t.Errorf("Result(baseline) err = %v, want the load's", err)
			}
		}()
	}
	wg.Wait()
	if loads[pt] != 1 || loads[base] != 1 {
		t.Errorf("loads = %v, want one per spec", loads)
	}
}

func TestStoreUnplannedSpec(t *testing.T) {
	st := NewStore()
	if _, err := st.Result(testSpec(10)); err == nil {
		t.Error("Result on an unplanned spec should error")
	}
	if _, err := st.Point(testSpec(10)); err == nil {
		t.Error("Point on an unplanned spec should error")
	}
}

func TestSweepMonotoneOverhead(t *testing.T) {
	// A sweep declared as a plan keeps the contract of the old serial
	// core.Sweep: baseline denominator, monotone slowdowns, jobs-invariant.
	sweep := func(jobs int) []core.Point {
		t.Helper()
		p := NewPlan()
		var specs []Spec
		for _, v := range []float64{0, 10, 50} {
			specs = append(specs, p.AddSweep(testSpec(v), false))
		}
		st, err := (&Runner{Jobs: jobs}).Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if base, err := st.Result(specs[0].BaselineSpec(false)); err != nil || base.Elapsed == 0 {
			t.Fatalf("baseline %+v, %v", base, err)
		}
		pts := make([]core.Point, len(specs))
		for i, s := range specs {
			if pts[i], err = st.Point(s); err != nil {
				t.Fatal(err)
			}
		}
		return pts
	}
	pts := sweep(4)
	if pts[0].Slowdown != 1 {
		t.Errorf("Δo=0 slowdown = %v, want 1", pts[0].Slowdown)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Slowdown <= pts[i-1].Slowdown {
			t.Errorf("slowdown not increasing: %v then %v", pts[i-1].Slowdown, pts[i].Slowdown)
		}
	}
	// And the same sweep serially must agree exactly.
	serial := sweep(1)
	for i := range pts {
		if pts[i] != serial[i] {
			t.Errorf("point %d differs across job counts: %+v vs %+v", i, pts[i], serial[i])
		}
	}
}

func TestSpecString(t *testing.T) {
	for s, want := range map[Spec]string{
		Baseline("radix", 32, 0.5, 1, false): "radix/p32 baseline",
		testSpec(20):                         "radix/p4 overhead=20",
	} {
		if got := fmt.Sprint(s); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestSpecCollKeysSeparately(t *testing.T) {
	// Runs under different collective selections are different runs: the
	// selection changes the schedule, so it must change the Store key.
	a := testSpec(10)
	b := testSpec(10)
	b.Coll = splitc.Collectives{Barrier: "tree"}
	if a.norm() == b.norm() {
		t.Error("specs with different collective selections compare equal")
	}
	// The baseline dependency stays within the selection: a tuned sweep's
	// slowdown is measured against the tuned baseline.
	base := b.BaselineSpec(false)
	if base.Coll != b.Coll {
		t.Errorf("BaselineSpec dropped the selection: %+v", base)
	}
	if got := b.String(); !strings.Contains(got, "bar=tree") {
		t.Errorf("String() = %q, want the selection rendered", got)
	}
}
