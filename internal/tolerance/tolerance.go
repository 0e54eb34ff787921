// Package tolerance computes an application's makespan as an analytic
// function of the LogGP deltas from one instrumented run's dependency
// graph (internal/depgraph).
//
// Along each sweep axis x ∈ {Δo, ΔL, Δg}, every source→sink path in the
// DAG is a line c + s·x (c the summed constants, s the integer count of
// parametric edges on the path), so the makespan T(x) = max over paths
// is a convex piecewise-linear function with integer slopes. One O(V+E)
// ascending scan evaluates T and its right-derivative at any x — the
// node order is topological by construction — and a crossing-point
// recursion reconstructs the full breakpoint list with O(segments)
// evaluations: each breakpoint is where the critical path shifts.
//
// Everything is exact int64 arithmetic on nanosecond deltas: at every
// integer x in [0, MaxDelta] the curve equals the longest path exactly,
// which is what lets the breakpoint property test compare predictions
// against re-measured runs byte for byte (where the schedule itself
// replays — see DESIGN.md §14 for the validity boundary).
//
// The curves predict whole sweep shapes (fig5b/fig6/fig7) from one run.
// The repository's tolerance table no longer reads them: it is measured
// (internal/exp, DESIGN.md §14), and this package is a library that the
// depgraph tests and benchmark/ probe.
package tolerance

import (
	"fmt"
	"sort"

	"repro/internal/depgraph"
	"repro/internal/sim"
)

// MaxDelta is the analysis domain: curves are reconstructed exactly on
// [0, MaxDelta] nanoseconds (10 ms — two orders of magnitude past the
// paper's largest sweep point). Eval extrapolates beyond it with the
// final slope, a lower bound once further breakpoints could exist.
const MaxDelta sim.Time = 10_000_000

// Seg is one linear piece: on [X, nextX) the makespan is
// T + Slope·(x − X).
type Seg struct {
	X     sim.Time `json:"x"`
	T     sim.Time `json:"t"`
	Slope int64    `json:"slope"`
}

// Curve is the convex piecewise-linear makespan along one axis.
type Curve struct {
	// Axis is the swept LogGP delta: "o", "L", or "g".
	Axis string `json:"axis"`
	// Segs are the linear pieces, ascending in X, Segs[0].X == 0.
	Segs []Seg `json:"segs"`
}

// Base is the makespan at delta zero.
func (c *Curve) Base() sim.Time {
	if len(c.Segs) == 0 {
		return 0
	}
	return c.Segs[0].T
}

// Eval returns the predicted makespan at delta x (x ≥ 0).
func (c *Curve) Eval(x sim.Time) sim.Time {
	if len(c.Segs) == 0 {
		return 0
	}
	lo, hi := 0, len(c.Segs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if c.Segs[mid].X <= x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	s := c.Segs[lo]
	return s.T + sim.Time(s.Slope)*(x-s.X)
}

// Curves bundles the three axes extracted from one run.
type Curves struct {
	// Elapsed is the instrumented run's measured makespan; every curve's
	// Base must reproduce it (Analyze's self-check).
	Elapsed sim.Time `json:"elapsed"`
	O       Curve    `json:"o"`
	L       Curve    `json:"l"`
	G       Curve    `json:"g"`
}

// ByAxis returns the curve for an axis name ("o", "L"/"l", "g").
func (cs *Curves) ByAxis(axis string) (*Curve, bool) {
	switch axis {
	case "o":
		return &cs.O, true
	case "L", "l":
		return &cs.L, true
	case "g":
		return &cs.G, true
	}
	return nil, false
}

// Analyze reconstructs the three makespan curves from a sealed graph.
// It fails if the graph's longest path at delta zero does not reproduce
// the run's measured makespan — the builder's end-to-end self-check that
// every nanosecond of the critical path is accounted for.
func Analyze(g *depgraph.Graph) (*Curves, error) {
	if g.Sink() < 0 {
		return nil, fmt.Errorf("tolerance: graph is not sealed")
	}
	ct := contract(g)
	cs := &Curves{Elapsed: g.Elapsed()}
	for _, ax := range []struct {
		axis  int
		name  string
		curve *Curve
	}{
		{axO, "o", &cs.O},
		{axL, "L", &cs.L},
		{axG, "g", &cs.G},
	} {
		c := buildCurve(&evaluator{ct: ct, axis: ax.axis}, ax.name)
		if got := c.Base(); got != g.Elapsed() {
			return nil, fmt.Errorf("tolerance: axis %s longest path at Δ=0 is %v, run measured %v — graph does not tile the critical path",
				ax.name, got, g.Elapsed())
		}
		*ax.curve = *c
	}
	return cs, nil
}

// Per-axis slope-count slots of a contracted edge.
const (
	axO = iota
	axL
	axG
	numAxes
)

// contracted is the chain-contracted view of a graph, shared by all
// three axis evaluations. Every in-degree-1 node's single in-edge is
// folded into its successors' edges, so evaluation only visits anchors:
// nodes with zero or several in-edges, plus the sink. Communication
// DAGs are dominated by per-processor chains, so this typically shrinks
// the evaluated graph by an order of magnitude. Each composite edge
// carries the folded chain's summed constant plus one slope counter per
// axis, which keeps every evaluation exact — including the
// lexicographic (value, slope) tie-break, because slopes accumulate
// along a chain exactly like values do and a chain node's "maximum" is
// trivially its only in-edge.
type contracted struct {
	sink int32 // anchor index of the sink
	// CSR in-edge arrays per anchor, in ascending original-node order
	// (topological, so one ascending scan evaluates the longest path).
	estart []int32
	epred  []int32          // predecessor anchor index (-1 = origin)
	ec     []int64          // summed constant weight
	ecnt   [][numAxes]int32 // per-axis slope counts
}

func (ct *contracted) anchors() int { return len(ct.estart) - 1 }

// contract builds the chain-contracted view: two O(V+E) passes (count
// in-degrees, fold chains) over the arena graph.
func contract(g *depgraph.Graph) *contracted {
	n := g.NumNodes()
	indeg := make([]int32, n)
	for i := 0; i < n; i++ {
		g.InEdges(int32(i), func(pred int32, c sim.Time, axis depgraph.Axis) {
			indeg[i]++
		})
	}
	// anchorOf[i] ≥ 0 is node i's anchor slot; chain nodes stay -1 and
	// carry their anchor-relative offset in rep*.
	anchorOf := make([]int32, n)
	nAnchors := int32(0)
	sink := g.Sink()
	for i := 0; i < n; i++ {
		if indeg[i] != 1 || int32(i) == sink {
			anchorOf[i] = nAnchors
			nAnchors++
		} else {
			anchorOf[i] = -1
		}
	}
	ct := &contracted{
		sink:   anchorOf[sink],
		estart: make([]int32, 1, nAnchors+1),
	}
	repAnchor := make([]int32, n)
	repC := make([]int64, n)
	repCnt := make([][numAxes]int32, n)
	// resolve folds an in-edge through its (possibly chained)
	// predecessor into anchor-relative form.
	resolve := func(pred int32, c sim.Time, axis depgraph.Axis) (int32, int64, [numAxes]int32) {
		var cnt [numAxes]int32
		switch axis {
		case depgraph.AxisO:
			cnt[axO] = 1
		case depgraph.AxisL:
			cnt[axL] = 1
		case depgraph.AxisG:
			cnt[axG] = 1
		}
		if pred < 0 {
			return -1, int64(c), cnt
		}
		if a := anchorOf[pred]; a >= 0 {
			return a, int64(c), cnt
		}
		for k := range cnt {
			cnt[k] += repCnt[pred][k]
		}
		return repAnchor[pred], repC[pred] + int64(c), cnt
	}
	for i := 0; i < n; i++ {
		if a := anchorOf[i]; a >= 0 {
			g.InEdges(int32(i), func(pred int32, c sim.Time, axis depgraph.Axis) {
				p, cc, cnt := resolve(pred, c, axis)
				ct.epred = append(ct.epred, p)
				ct.ec = append(ct.ec, cc)
				ct.ecnt = append(ct.ecnt, cnt)
			})
			ct.estart = append(ct.estart, int32(len(ct.epred)))
		} else {
			// Exactly one in-edge: fold it into the chain offset.
			g.InEdges(int32(i), func(pred int32, c sim.Time, axis depgraph.Axis) {
				repAnchor[i], repC[i], repCnt[i] = resolve(pred, c, axis)
			})
		}
	}
	return ct
}

// evaluator evaluates one graph's longest path along one axis on the
// shared contracted view. Queries are batched: one topological scan
// answers up to a whole scratch-buffer's worth of x values at once, so
// the reconstruction's cost is traversals × batch — a round of the
// breakpoint worklist costs one scan no matter how many intervals it
// refines.
type evaluator struct {
	ct   *contracted
	axis int
	val  []int64 // anchor-major × batch longest-path scratch
	slo  []int64
}

// maxScratch bounds the evaluator's scratch (two int64 lanes per anchor
// per batched point), so batch width adapts to graph size: small graphs
// batch wide, huge graphs narrow rather than exhausting memory.
const maxScratch = 64 << 20

// batch is the widest point batch one scan may answer.
func (e *evaluator) batch() int {
	k := maxScratch / 16 / e.ct.anchors()
	if k > 64 {
		return 64
	}
	if k < 1 {
		return 1
	}
	return k
}

// eval computes T(x) and its right-derivative for every x in xs.
func (e *evaluator) eval(xs []int64) (ys, ss []int64) {
	ys = make([]int64, len(xs))
	ss = make([]int64, len(xs))
	for off := 0; off < len(xs); off += e.batch() {
		end := off + e.batch()
		if end > len(xs) {
			end = len(xs)
		}
		e.evalChunk(xs[off:end], ys[off:end], ss[off:end])
	}
	return ys, ss
}

// evalChunk is one ascending scan in the contracted (topological)
// anchor order, taking the lexicographic (value, slope) maximum over
// in-edges at every query point so ties resolve to the steepest
// critical path — the right-continuous slope choice.
func (e *evaluator) evalChunk(xs, ys, ss []int64) {
	ct := e.ct
	k := len(xs)
	n := ct.anchors() * k
	if cap(e.val) < n {
		e.val = make([]int64, n)
		e.slo = make([]int64, n)
	}
	val, slo := e.val[:n], e.slo[:n]
	for ai := 0; ai < ct.anchors(); ai++ {
		base := ai * k
		lo, hi := ct.estart[ai], ct.estart[ai+1]
		if lo == hi {
			for j := 0; j < k; j++ {
				val[base+j], slo[base+j] = 0, 0
			}
			continue
		}
		for ei := lo; ei < hi; ei++ {
			c, cnt := ct.ec[ei], int64(ct.ecnt[ei][e.axis])
			if p := ct.epred[ei]; p >= 0 {
				pb := int(p) * k
				if ei == lo {
					for j := 0; j < k; j++ {
						val[base+j] = val[pb+j] + c + cnt*xs[j]
						slo[base+j] = slo[pb+j] + cnt
					}
					continue
				}
				for j := 0; j < k; j++ {
					v := val[pb+j] + c + cnt*xs[j]
					s := slo[pb+j] + cnt
					if v > val[base+j] || (v == val[base+j] && s > slo[base+j]) {
						val[base+j], slo[base+j] = v, s
					}
				}
				continue
			}
			if ei == lo {
				for j := 0; j < k; j++ {
					val[base+j], slo[base+j] = c+cnt*xs[j], cnt
				}
				continue
			}
			for j := 0; j < k; j++ {
				v, s := c+cnt*xs[j], cnt
				if v > val[base+j] || (v == val[base+j] && s > slo[base+j]) {
					val[base+j], slo[base+j] = v, s
				}
			}
		}
	}
	sb := int(ct.sink) * k
	copy(ys, val[sb:sb+k])
	copy(ss, slo[sb:sb+k])
}

// line is a supporting line of T in slope-intercept form.
type line struct{ s, i int64 }

func mkline(x, y, s int64) line { return line{s: s, i: y - s*x} }

// maxSplitDepth caps the crossing refinement; a convex PWL with integer
// slopes bounded by the edge count cannot need anywhere near this many
// refinements, so hitting it would indicate an evaluator bug. The curve
// stays correct at every emitted anchor either way.
const maxSplitDepth = 200

// task is one pending step of the breakpoint reconstruction. A split
// task refines (xa, xb) by evaluating the anchor lines' crossing; an
// advance task evaluates the first integer past a verified prefix to
// start the next piece. Either way, x is the query point the task
// needs; tasks of one round share a single batched evaluation.
type task struct {
	xa, ya, sa int64
	xb, yb, sb int64
	x          int64
	advance    bool
	depth      int
}

// buildCurve reconstructs the integer-start breakpoints of T on
// [0, MaxDelta] with O(segments) evaluations, batched level by level.
// The chord argument makes each emitted boundary exact: when one line
// is active at both ends of a sub-interval, convexity pins T to it on
// every point between.
func buildCurve(e *evaluator, name string) *Curve {
	ends, slopes := e.eval([]int64{0, int64(MaxDelta)})
	y0, s0 := ends[0], slopes[0]
	out := []Seg{{X: 0, T: sim.Time(y0), Slope: s0}}

	var tasks []task
	// addSplit queues the refinement of (xa, xb) unless its anchors
	// already lie on one line (nothing between can deviate: convexity).
	addSplit := func(t task) {
		la, lb := mkline(t.xa, t.ya, t.sa), mkline(t.xb, t.yb, t.sb)
		if la == lb || t.sa >= t.sb || t.xa >= t.xb || t.depth > maxSplitDepth {
			return
		}
		// Crossing of the two anchor lines, clamped into the interval.
		t.x = (la.i - lb.i) / (t.sb - t.sa)
		if t.x < t.xa {
			t.x = t.xa
		}
		if t.x >= t.xb {
			t.x = t.xb - 1
		}
		t.advance = false
		tasks = append(tasks, t)
	}
	addSplit(task{xa: 0, ya: y0, sa: s0, xb: int64(MaxDelta), yb: ends[1], sb: slopes[1]})

	xs := make([]int64, 0, len(tasks))
	for len(tasks) > 0 {
		xs = xs[:0]
		for _, t := range tasks {
			xs = append(xs, t.x)
		}
		ys, ss := e.eval(xs)
		round := tasks
		tasks = tasks[len(tasks):]
		for i, t := range round {
			ym, sm := ys[i], ss[i]
			lm := mkline(t.x, ym, sm)
			la, lb := mkline(t.xa, t.ya, t.sa), mkline(t.xb, t.yb, t.sb)
			switch {
			case t.advance:
				if lm == la {
					// Defensive: shouldn't happen for a true crossing.
					addSplit(task{xa: t.x, ya: ym, sa: sm, xb: t.xb, yb: t.yb, sb: t.sb, depth: t.depth + 1})
					continue
				}
				out = append(out, Seg{X: sim.Time(t.x), T: sim.Time(ym), Slope: sm})
				if lm != lb {
					addSplit(task{xa: t.x, ya: ym, sa: sm, xb: t.xb, yb: t.yb, sb: t.sb, depth: t.depth + 1})
				}
			case lm == la:
				// la holds through x; the next integer starts a new line.
				t.x++
				t.advance = true
				tasks = append(tasks, t)
			case lm == lb:
				addSplit(task{xa: t.xa, ya: t.ya, sa: t.sa, xb: t.x, yb: ym, sb: sm, depth: t.depth + 1})
			default:
				addSplit(task{xa: t.xa, ya: t.ya, sa: t.sa, xb: t.x, yb: ym, sb: sm, depth: t.depth + 1})
				addSplit(task{xa: t.x, ya: ym, sa: sm, xb: t.xb, yb: t.yb, sb: t.sb, depth: t.depth + 1})
			}
		}
	}
	// Rounds interleave disjoint intervals, so emitted pieces arrive out
	// of order; the curve is their ascending sequence.
	sort.Slice(out, func(i, j int) bool { return out[i].X < out[j].X })
	return &Curve{Axis: name, Segs: out}
}
