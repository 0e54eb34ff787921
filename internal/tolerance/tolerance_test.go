package tolerance_test

import (
	"testing"

	"repro/internal/am"
	"repro/internal/depgraph"
	"repro/internal/logp"
	"repro/internal/sim"
	"repro/internal/tolerance"
)

// handGraph drives the Builder's hook methods directly with the event
// sequence of one request/reply-free round trip at NOW() parameters:
// p0 charges o_send on [0, 1800), injects at 1800, the wire delivers at
// 6800, p1 charges o_recv on [6800, 10800) and the firmware credit goes
// back out at 10800. The expected makespan function is exact by hand:
// T(Δo) = 10800 + 2Δo, T(ΔL) = 10800 + ΔL, T(Δg) = 10800.
func handGraph(t *testing.T) *depgraph.Graph {
	t.Helper()
	b := depgraph.New(2, logp.NOW())
	b.MessageSent(am.SendEvent{Src: 0, Dst: 1, OFrom: 0, OTo: 1800, At: 1800,
		Inject: 1800, GapFree: 7600, BusyFree: 7600, Arrival: 6800})
	b.MessageDelivered(0, 1, false, 6800)
	b.RecvOverhead(1, 6800, 10800)
	b.CreditIssued(0, 1, 10800)
	g, err := b.Seal(10800)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return g
}

func TestHandBuiltRoundTrip(t *testing.T) {
	g := handGraph(t)
	cs, err := tolerance.Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if cs.Elapsed != 10800 {
		t.Fatalf("Elapsed = %d, want 10800", cs.Elapsed)
	}
	for _, tc := range []struct {
		axis  string
		x     sim.Time
		want  sim.Time
		slope int64
	}{
		{"o", 0, 10800, 2},
		{"o", 1000, 12800, 2},
		{"o", 100000, 210800, 2},
		{"L", 0, 10800, 1},
		{"L", 5000, 15800, 1},
		{"g", 0, 10800, 0},
		{"g", 99999, 10800, 0},
	} {
		c, ok := cs.ByAxis(tc.axis)
		if !ok {
			t.Fatalf("ByAxis(%q) missing", tc.axis)
		}
		if got := c.Eval(tc.x); got != tc.want {
			t.Errorf("axis %s Eval(%d) = %d, want %d", tc.axis, tc.x, got, tc.want)
		}
		if len(c.Segs) != 1 || c.Segs[0].Slope != tc.slope {
			t.Errorf("axis %s segs = %+v, want single piece of slope %d", tc.axis, c.Segs, tc.slope)
		}
	}
}

// windowedStream runs a real simulated machine: p0 fires n requests at
// p1 and store-syncs (waits for every window credit to return — the
// drain pattern the apps use). p1 waits on its own handler count, a
// processor-local condition. Both wait conditions flip at instants the
// machine also wakes the waiter (a credit arrival, an o_recv charge),
// so the measured makespan is a schedule the dependency graph models
// exactly; a condition over *remote* state read through host memory
// would instead end at a wake quantization boundary and sit outside
// the model's validity region (see DESIGN.md §14).
// Returns the measured makespan at the given deltas.
func windowedStream(t *testing.T, n int, params logp.Params, b *depgraph.Builder) sim.Time {
	t.Helper()
	eng := sim.New(sim.Config{Procs: 2})
	m, err := am.NewMachine(eng, params)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if b != nil {
		m.SetHooks(b)
	}
	seen := 0
	handler := func(*am.Endpoint, *am.Token, am.Args) { seen++ }
	err = eng.RunEach([]func(*sim.Proc){
		func(p *sim.Proc) {
			ep := m.Endpoint(0)
			for i := 0; i < n; i++ {
				ep.Request(1, am.ClassWrite, handler, am.Args{})
			}
			ep.WaitUntilFor(am.WaitStore, func() bool { return ep.TotalOutstanding() == 0 }, "drain")
		},
		func(p *sim.Proc) {
			m.Endpoint(1).WaitUntil(func() bool { return seen == n }, "sink")
		},
	})
	if err != nil {
		t.Fatalf("RunEach: %v", err)
	}
	return eng.MaxClock()
}

// TestCurveMatchesSimulatedMachine is the end-to-end exactness check on
// a window-saturating workload: the curves extracted from one
// instrumented run must predict the re-simulated makespan exactly at
// every breakpoint and at sweep-grid points, on every axis.
func TestCurveMatchesSimulatedMachine(t *testing.T) {
	const n = 40 // 5× the request window: credit gating is exercised
	base := logp.NOW()
	b := depgraph.New(2, base)
	elapsed := windowedStream(t, n, base, b)
	g, err := b.Seal(elapsed)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	cs, err := tolerance.Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if cs.Elapsed != elapsed {
		t.Fatalf("Elapsed = %d, measured %d", cs.Elapsed, elapsed)
	}

	grid := []sim.Time{0, 1000, 2200, 5000, 10000, 25000, 100000}
	for _, axis := range []string{"o", "L", "g"} {
		c, _ := cs.ByAxis(axis)
		points := append([]sim.Time{}, grid...)
		for _, s := range c.Segs {
			points = append(points, s.X)
			if s.X > 0 {
				points = append(points, s.X-1)
			}
		}
		for _, x := range points {
			p := base
			switch axis {
			case "o":
				p.DeltaO = x
			case "L":
				p.DeltaL = x
			case "g":
				p.DeltaG = x
			}
			measured := windowedStream(t, n, p, nil)
			if got := c.Eval(x); got != measured {
				t.Errorf("axis %s at Δ=%dns: predicted %d, measured %d (segs %+v)",
					axis, x, got, measured, c.Segs)
			}
		}
	}
}

func TestBuilderRejectsMismatchedEvents(t *testing.T) {
	b := depgraph.New(2, logp.NOW())
	// A delivery with no matching launch must poison the builder.
	b.MessageDelivered(0, 1, false, 5000)
	if _, err := b.Seal(5000); err == nil {
		t.Fatal("Seal accepted a delivery without a launch")
	}
}
