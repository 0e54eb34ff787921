package exp

import (
	"fmt"
	"sort"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/run"
)

// The scale experiment asks whether the paper's sensitivity conclusions
// — drawn on a 32-node NOW — survive three orders of magnitude more
// processors, where barrier fan-in, tree depth, and gap serialization
// actually dominate. It runs the three scalekern continuation kernels
// (barrier-synchronized, pipelined, request/reply) up a weak-scaling
// ladder to P = 1M on the resumable runtime, measuring at each rung the
// slowdown from the same added overhead, gap, and latency, and whether
// the knob ordering observed at the paper's size still holds at depth.
//
// Every column is derived from virtual time and deterministic counters,
// so the table is bit-identical at any -jobs setting. What the ladder
// costs the host is benchmark/'s job: the scale-10k workload and its
// scalekern.* per-layer metrics (ns/event, bytes/proc) up to P = 10k.

// scaleDeltaUs is the added overhead/gap/latency of each sensitivity
// run, in µs — fig5/fig6's mid-range point, large enough to dominate
// the baseline parameters without tripping the livelock bound.
const scaleDeltaUs = 25

// scaleKnobs are the varied parameters, in fig5 → fig6 → fig7 order.
var scaleKnobs = []core.Knob{core.KnobO, core.KnobG, core.KnobL}

// scaleSweepMaxP caps the knob-sweep rungs. The top of the ladder runs
// baseline-only: a P = 1M baseline is tens of host-minutes, and the
// knob orderings are judged on the 32 → 100k rungs, which already span
// 3.5 decades of machine size. The million-processor rung's job is the
// baseline itself — the machine runs, its virtual time and traffic are
// deterministic.
const scaleSweepMaxP = 100_000

// scaleRungs is the weak-scaling ladder. The first rung is the options'
// cluster size (-procs, default the paper's 32) and anchors the knob
// ordering the deeper rungs are judged against. Quick mode stops at 10k
// — the CI smoke ladder.
func scaleRungs(o Options) []int {
	rungs := []int{o.Procs, 1_000, 10_000, 100_000, 1_000_000}
	if o.Quick {
		rungs = []int{o.Procs, 1_000, 10_000}
	}
	sort.Ints(rungs)
	out := rungs[:1]
	for _, p := range rungs[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// scalePlan lists the ladder: per kernel and rung, one baseline plus
// one design point per knob.
func scalePlan(o Options, sel []apps.App) []run.Spec {
	var specs []run.Spec
	for _, a := range sel {
		for _, procs := range scaleRungs(o) {
			specs = append(specs, o.baselineSpec(a, procs))
			if procs > scaleSweepMaxP {
				continue
			}
			for _, k := range scaleKnobs {
				specs = append(specs, o.sweepSpec(a, procs, k, scaleDeltaUs))
			}
		}
	}
	return specs
}

// scaleOrder renders the knob sensitivity ranking ("o>g>L") of one
// rung. Ties break in fig order (o, g, L) via the stable sort, so the
// string is deterministic.
func scaleOrder(slow [3]float64) string {
	type kv struct {
		name string
		v    float64
	}
	ks := []kv{{"o", slow[0]}, {"g", slow[1]}, {"L", slow[2]}}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].v > ks[j].v })
	return ks[0].name + ">" + ks[1].name + ">" + ks[2].name
}

// scaleWireKB is the wire traffic per processor in KB: bulk payload
// plus the small-message wire size for everything else.
func scaleWireKB(st *am.Stats) float64 {
	small := st.TotalSent() - st.TotalBulk()
	bytes := st.TotalBulkBytes() + small*am.SmallWireBytes
	return float64(bytes) / float64(st.P()) / 1024
}

func scaleRender(o Options, sel []apps.App, st *run.Store) (*Table, error) {
	t := &Table{
		ID:    "scale",
		Title: "Weak scaling on the resumable runtime (P to 1M)",
		Columns: []string{"kernel", "P", "base(s)", "msgs/proc", "wireKB/proc", "Mevents",
			"slow Δo", "slow Δg", "slow ΔL", "order", "vs anchor"},
	}
	for _, a := range sel {
		anchor := ""
		for _, procs := range scaleRungs(o) {
			res, err := st.Result(o.baselineSpec(a, procs))
			if err != nil {
				return nil, err
			}
			if procs > scaleSweepMaxP {
				t.Rows = append(t.Rows, []string{
					a.PaperName(),
					fmt.Sprintf("%d", procs),
					secs(res.Elapsed.Seconds()),
					f1(res.Stats.AvgPerProc()),
					f2(scaleWireKB(res.Stats)),
					f2(float64(res.Sched.EventsRun) / 1e6),
					"-", "-", "-", "-", "baseline only",
				})
				continue
			}
			var slow [3]float64
			livelocked := false
			for i, k := range scaleKnobs {
				pt, err := st.Point(o.sweepSpec(a, procs, k, scaleDeltaUs))
				if err != nil {
					return nil, err
				}
				if pt.Livelocked {
					livelocked = true
					continue
				}
				slow[i] = pt.Slowdown
			}
			row := []string{
				a.PaperName(),
				fmt.Sprintf("%d", procs),
				secs(res.Elapsed.Seconds()),
				f1(res.Stats.AvgPerProc()),
				f2(scaleWireKB(res.Stats)),
				f2(float64(res.Sched.EventsRun) / 1e6),
			}
			if livelocked {
				row = append(row, "N/A", "N/A", "N/A", "N/A", "N/A")
			} else {
				order := scaleOrder(slow)
				verdict := "anchor"
				if anchor == "" {
					anchor = order
				} else if order == anchor {
					verdict = "holds"
				} else {
					verdict = "differs"
				}
				row = append(row, f2(slow[0]), f2(slow[1]), f2(slow[2]), order, verdict)
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("weak scaling: fixed per-processor input (scale %.4g), Δ = +%gµs per knob", o.Scale, float64(scaleDeltaUs)),
		fmt.Sprintf("anchor rung is -procs (%d); 'holds' means the o/g/L sensitivity ordering matches it", o.Procs),
		fmt.Sprintf("rungs above P=%d run baseline-only; orderings are judged through that depth", scaleSweepMaxP),
		"all columns are virtual-time/deterministic; host ns/event and bytes/proc are benchmark/'s scalekern.* metrics")
	return t, nil
}
