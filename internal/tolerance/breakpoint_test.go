package tolerance_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/suite"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/sim"
	"repro/internal/tolerance"
)

// bruteLongestPath is the reference implementation the property test
// checks the analytic engine against: a direct O(V+E) longest-path scan
// of the extracted DAG with the axis delta substituted into every
// parametric edge. It shares nothing with tolerance.Analyze's machinery
// (no chain contraction, no batched evaluation, no breakpoint
// reconstruction), so agreement at a point means the whole pipeline
// reproduced the graph's makespan there.
func bruteLongestPath(g *depgraph.Graph, axis depgraph.Axis, x int64) int64 {
	val := make([]int64, g.NumNodes())
	for i := int32(0); i < int32(g.NumNodes()); i++ {
		best, first := int64(0), true
		g.InEdges(i, func(pred int32, c sim.Time, a depgraph.Axis) {
			var pv int64
			if pred >= 0 {
				pv = val[pred]
			}
			v := pv + int64(c)
			if a == axis {
				v += x
			}
			if first || v > best {
				best, first = v, false
			}
		})
		val[i] = best
	}
	return val[g.Sink()]
}

// TestBreakpointExactness pins the analytic engine's correctness and its
// validity boundary (DESIGN.md §14) on two small apps, nowsort (bulk
// exchange + barriers) and connect (lockstep pointer jumping).
//
// Where exactness must hold, it is asserted in integer nanoseconds:
//
//   - The piecewise-linear curve must equal the brute-force longest path
//     of the same DAG at every breakpoint, at the last nanosecond of the
//     piece before it, and at every grid point — any mismatch is a bug
//     in the contraction, the batched evaluator, or the breakpoint
//     reconstruction.
//   - At Δ=0 the prediction must equal a real re-measured run exactly:
//     the baseline schedule trivially replays, so the DAG's makespan is
//     the run's makespan (tolerance.Analyze self-checks the instrumented
//     run; this asserts it against an independent uninstrumented one).
//
// Beyond Δ=0 the schedule itself responds to the delta — arrival orders
// shift, so the recorded dependence structure drifts from the perturbed
// run's and only the validation-error bound applies: within the paper's
// sweep range (deltas up to 100µs) predictions stay within nearBound of
// measurement at every breakpoint and grid point; in the far field out
// to MaxDelta (10ms, 100× past the paper's largest sweep) the drift
// compounds and only the farBound sanity factor is asserted. The
// per-app error tables live in the tolerance experiment
// (EXPERIMENTS.md).
func TestBreakpointExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("re-measures a real run per breakpoint")
	}
	const (
		paperRange = 100 * 1000 // ns; fig5b/fig6 sweep deltas top out at 100µs
		nearBound  = 0.10       // worst observed in range ~4.2% (connect ΔL=100µs)
		farBound   = 1.00       // worst observed ~70% (nowsort ΔL at 10ms)
	)
	axes := []struct {
		name string
		ax   depgraph.Axis
		knob core.Knob
	}{
		{"o", depgraph.AxisO, core.KnobO},
		{"L", depgraph.AxisL, core.KnobL},
		{"g", depgraph.AxisG, core.KnobG},
	}
	for _, name := range []string{"nowsort", "connect"} {
		a, err := suite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := apps.Config{Procs: 8, Scale: 1.0 / 2048, Seed: 1, Depgraph: true}.Norm()
		res, err := a.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.DepgraphErr != "" {
			t.Fatalf("%s: depgraph: %s", name, res.DepgraphErr)
		}
		plain := cfg
		plain.Depgraph = false
		for _, ax := range axes {
			c, ok := res.Curves.ByAxis(ax.name)
			if !ok {
				t.Fatalf("%s: no %s curve", name, ax.name)
			}
			if c.Base() != res.Elapsed {
				t.Errorf("%s Δ%s: Base() = %d, run elapsed %d", name, ax.name, c.Base(), res.Elapsed)
			}
			if len(c.Segs) < 2 {
				t.Errorf("%s Δ%s: curve has %d pieces; expected the critical path to shift at least once over [0, %v]",
					name, ax.name, len(c.Segs), tolerance.MaxDelta)
			}
			// Query set: every piece start, the last nanosecond of the
			// piece before it, and a coarse grid spanning the range.
			var ns []int64
			for _, s := range c.Segs {
				ns = append(ns, int64(s.X))
				if s.X > 0 {
					ns = append(ns, int64(s.X)-1)
				}
			}
			for _, us := range []float64{1, 5, 25, 100, 1000, 10000} {
				ns = append(ns, int64(sim.FromMicros(us)))
			}
			for _, x := range ns {
				if x < 0 || x > int64(tolerance.MaxDelta) {
					continue
				}
				pred := c.Eval(sim.Time(x))

				// Exactness against the reference longest path: must
				// hold at every point, nanosecond for nanosecond.
				if want := bruteLongestPath(res.Graph, ax.ax, x); int64(pred) != want {
					t.Errorf("%s Δ%s=%dns: curve says %d, brute-force longest path says %d",
						name, ax.name, x, pred, want)
				}

				v := float64(x) / 1e3 // exact: x < 2^53
				pt, _, err := core.Measure(a, plain, ax.knob, v, res.Elapsed)
				if err != nil {
					t.Fatalf("%s Δ%s=%gµs: %v", name, ax.name, v, err)
				}
				if pt.Livelocked {
					if pred < res.Elapsed*core.LivelockFactor {
						t.Errorf("%s Δ%s=%gµs: measured run livelocked but prediction %d is under the bound", name, ax.name, v, pred)
					}
					continue
				}
				// Exactness against re-measurement: must hold at Δ=0.
				if x == 0 && pred != pt.Elapsed {
					t.Errorf("%s Δ%s=0: predicted %d, measured %d", name, ax.name, pred, pt.Elapsed)
				}
				// Validation bound everywhere else.
				bound := nearBound
				if x > paperRange {
					bound = farBound
				}
				if e := relErr(pred, pt.Elapsed); e > bound {
					t.Errorf("%s Δ%s=%gµs: predicted %d, measured %d (%.1f%% off, bound %.0f%%)",
						name, ax.name, v, pred, pt.Elapsed, 100*e, 100*bound)
				}
			}
		}
	}
}

func relErr(pred, meas sim.Time) float64 {
	e := float64(pred) - float64(meas)
	if e < 0 {
		e = -e
	}
	return e / float64(meas)
}
