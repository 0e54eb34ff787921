package exp

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/run"
	"repro/internal/sim"
)

// extBurstGap is the mid-sweep gap point (µs) ExtBurst measures at; it
// is one of Fig 6's points (also surviving Quick trimming), so a merged
// plan reuses that run.
const extBurstGap = 24.2

// extBurstPlan lists one gap design point per app.
func extBurstPlan(o Options, sel []apps.App) []run.Spec {
	specs := make([]run.Spec, len(sel))
	for i, a := range sel {
		specs[i] = o.sweepSpec(a, o.Procs, core.KnobG, extBurstGap)
	}
	return specs
}

// extBurstRender tests the paper's §5.2 burstiness claim directly. The
// paper infers from the linear gap response that "communication tends to
// be very bursty, rather than spaced at even intervals"; with the
// send-interval histograms we can measure it: the fraction of messages
// issued within 2·g of the previous send, the mean interval, and how the
// burst and uniform gap models compare against a measured mid-sweep
// point.
func extBurstRender(o Options, sel []apps.App, st *run.Store) (*Table, error) {
	t := &Table{
		ID:    "ext-burst",
		Title: "Burstiness and the gap models (extension of §5.2)",
		Columns: []string{
			"Program", "mean send int.(µs)", "≤2g bursts",
			fmt.Sprintf("meas@Δg=%.0f (s)", extBurstGap), "burst pred(s)", "uniform pred(s)",
		},
		Notes: []string{
			"'≤2g bursts': fraction of sends issued within 2·g of the previous send",
			"linear gap response ⇒ the burst model should dominate for heavy communicators",
		},
	}
	for _, a := range sel {
		base, err := st.Result(o.baselineSpec(a, o.Procs))
		if err != nil {
			return nil, err
		}
		pt, err := st.Point(o.sweepSpec(a, o.Procs, core.KnobG, extBurstGap))
		if err != nil {
			return nil, err
		}
		m, _ := base.Stats.MaxPerProc()
		interval := base.Stats.MeanSendInterval()
		g := o.appConfig(o.Procs).Params.EffGap()
		burstFrac := base.Stats.BurstFraction(2 * g)
		burstPred := model.GapBurst(base.Elapsed, m, sim.FromMicros(extBurstGap))
		uniformPred := model.GapUniform(base.Elapsed, m, g+sim.FromMicros(extBurstGap), interval)
		meas := "N/A"
		if !pt.Livelocked {
			meas = secs(pt.Elapsed.Seconds())
		}
		t.Rows = append(t.Rows, []string{
			a.PaperName(),
			f1(interval.Micros()),
			fmt.Sprintf("%.0f%%", 100*burstFrac),
			meas,
			secs(burstPred.Seconds()),
			secs(uniformPred.Seconds()),
		})
	}
	return t, nil
}

// ExtTradeoff's design points (§5.5): a machine degraded by Δo=20µs, the
// same machine with doubled CPU speed, and the same machine with the
// total per-message overhead halved instead.
const (
	tradeoffAddedO = 20.0 // µs, the degraded starting design point
	tradeoffBaseO  = 2.9  // NOW's o
)

func tradeoffSpecs(o Options, a apps.App) (degraded, fastCPU, fastNet run.Spec) {
	halvedDelta := (tradeoffBaseO+tradeoffAddedO)/2 - tradeoffBaseO
	degraded = o.sweepSpec(a, o.Procs, core.KnobO, tradeoffAddedO)
	fastCPU = degraded
	fastCPU.CPUSpeedup = 2
	fastNet = o.sweepSpec(a, o.Procs, core.KnobO, halvedDelta)
	return degraded, fastCPU, fastNet
}

// extTradeoffPlan lists the three design points per app (each bounded
// by the shared unmodified baseline's livelock detection).
func extTradeoffPlan(o Options, sel []apps.App) []run.Spec {
	var specs []run.Spec
	for _, a := range sel {
		degraded, fastCPU, fastNet := tradeoffSpecs(o, a)
		specs = append(specs, degraded, fastCPU, fastNet)
	}
	return specs
}

// extTradeoffRender quantifies the paper's closing observation (§5.5):
// "rather than making a significant investment to double a machine's
// processing capacity, the investment may be better directed toward
// improving the communication system." Starting from a machine with
// LAN-class added overhead, it compares doubling the CPU speed against
// halving the total per-message overhead.
func extTradeoffRender(o Options, sel []apps.App, st *run.Store) (*Table, error) {
	t := &Table{
		ID:    "ext-tradeoff",
		Title: fmt.Sprintf("Processor vs network investment from o=%.1fµs (extension of §5.5)", tradeoffBaseO+tradeoffAddedO),
		Columns: []string{
			"Program", "degraded (s)", "2x CPU speedup", "o/2 speedup", "better investment",
		},
		Notes: []string{
			"starting point: Δo=20µs (a slow stack); '2x CPU' halves compute charges;",
			"'o/2' halves the total per-message overhead; entries are speedups over the degraded run",
		},
	}
	for _, a := range sel {
		dSpec, cSpec, nSpec := tradeoffSpecs(o, a)
		degraded, err := st.Point(dSpec)
		if err != nil {
			return nil, fmt.Errorf("%s degraded: %w", a.Name(), err)
		}
		fastCPU, err := st.Point(cSpec)
		if err != nil {
			return nil, fmt.Errorf("%s 2xCPU: %w", a.Name(), err)
		}
		fastNet, err := st.Point(nSpec)
		if err != nil {
			return nil, fmt.Errorf("%s o/2: %w", a.Name(), err)
		}
		if degraded.Livelocked || fastCPU.Livelocked || fastNet.Livelocked {
			t.Rows = append(t.Rows, []string{a.PaperName(), "N/A", "N/A", "N/A", "N/A"})
			continue
		}
		cpuSpeed := float64(degraded.Elapsed) / float64(fastCPU.Elapsed)
		netSpeed := float64(degraded.Elapsed) / float64(fastNet.Elapsed)
		winner := "network"
		if cpuSpeed > netSpeed {
			winner = "CPU"
		}
		t.Rows = append(t.Rows, []string{
			a.PaperName(),
			secs(degraded.Elapsed.Seconds()),
			f2(cpuSpeed) + "x",
			f2(netSpeed) + "x",
			winner,
		})
	}
	return t, nil
}

// ExtPhases' grid: Radix at two cluster sizes under three overheads.
var extPhasesOverheads = []float64{0, 20, 100}

func extPhasesProcs(o Options) []int { return []int{16, o.Procs} }

// extPhasesPlan lists the Radix runs; the Δo points are ordinary
// overhead design points, so the 32-node ones are shared with Fig 5b's
// sweep in a merged plan.
func extPhasesPlan(o Options, sel []apps.App) []run.Spec {
	var specs []run.Spec
	for _, procs := range extPhasesProcs(o) {
		for _, dO := range extPhasesOverheads {
			specs = append(specs, o.sweepSpec(sel[0], procs, core.KnobO, dO))
		}
	}
	return specs
}

// extPhasesRender reproduces the paper's §5.1 dissection of Radix's
// hypersensitivity: the serialized global-histogram phase consumes ~20%
// of the run at baseline overhead but ~60% at Δo=100 µs (and far less on
// 16 nodes, since the serialization scales with radix × P).
func extPhasesRender(o Options, sel []apps.App, st *run.Store) (*Table, error) {
	a := sel[0]
	t := &Table{
		ID:    "ext-phases",
		Title: "Radix phase shares vs overhead (extension of §5.1)",
		Columns: []string{
			"Δo(µs)", "Procs", "local-rank", "histogram", "distribution",
		},
		Notes: []string{
			"paper: the histogram phase takes 20% of the 32-node run at baseline,",
			"60% at o=100µs, but only 16% of the 16-node run at o=100µs",
		},
	}
	for _, procs := range extPhasesProcs(o) {
		for _, dO := range extPhasesOverheads {
			res, err := st.Result(o.sweepSpec(a, procs, core.KnobO, dO))
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				f1(dO),
				fmt.Sprintf("%d", procs),
				fmt.Sprintf("%.0f%%", 100*res.Extra["phase:local-rank"]),
				fmt.Sprintf("%.0f%%", 100*res.Extra["phase:histogram"]),
				fmt.Sprintf("%.0f%%", 100*res.Extra["phase:distribution"]),
			})
		}
	}
	return t, nil
}
