package exp

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/logp"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/splitc"
)

// The collectives experiment validates the pluggable collective engine
// and its LogGP auto-tuner, two ways. Part one is a crossover study run
// inline (no application runs): every registered algorithm for each
// primitive is timed on a set of machines and cluster sizes with a
// per-episode microbenchmark, next to the closed-form LogGP model cost
// the tuner minimizes. The interesting question is whether the model's
// argmin — the tuner's pick — lands on the measured winner at each
// point. Part two turns the tuner loose on real applications: the
// barrier-heavy subset of the suite is swept over o, g, and L twice,
// once with the default selection and once with Collectives "auto", and
// the table reports the makespan the tuned selection buys (or costs) at
// each machine point.

// collEpisodes is the number of collective episodes each microbenchmark
// averages over (the same count the cross-runtime equivalence tests
// use, so the back-to-back tag-reuse discipline is already proven).
const collEpisodes = 4

// collPayloadBytes is the payload the tuner models: every splitc
// collective moves one 8-byte word.
const collPayloadBytes = 8

// autoColl is the all-auto selection Part two sweeps under.
func autoColl() splitc.Collectives {
	return splitc.Collectives{
		Barrier:   splitc.CollAuto,
		Broadcast: splitc.CollAuto,
		AllReduce: splitc.CollAuto,
	}
}

// A collMachine is one LogGP parameter point of the crossover study.
type collMachine struct {
	name   string
	params logp.Params
}

// collMachines is the machine list of the crossover study: the baseline
// NOW plus one high-overhead and one high-latency variant (the two
// knobs that move collective crossovers in opposite directions); full
// mode adds a high-gap point.
func (o Options) collMachines() []collMachine {
	hiO, hiL, hiG := baseParams(), baseParams(), baseParams()
	hiO.DeltaO = 50 * sim.Microsecond
	hiL.DeltaL = 100 * sim.Microsecond
	hiG.DeltaG = 20 * sim.Microsecond
	ms := []collMachine{
		{"NOW", baseParams()},
		{"NOW+o50", hiO},
		{"NOW+L100", hiL},
	}
	if !o.Quick {
		ms = append(ms, collMachine{"NOW+g20", hiG})
	}
	return ms
}

// collProcs is the cluster-size axis of the crossover study.
func (o Options) collProcs() []int {
	if o.Quick {
		return []int{8, 32}
	}
	return []int{2, 4, 8, 13, 32, 64}
}

// A collCross is one (primitive, machine, size, algorithm) point of the
// crossover study: the measured per-episode cost, the model cost, and
// whether this algorithm is the measured winner and/or the tuner's
// pick for the group.
type collCross struct {
	Primitive string
	Machine   string
	Procs     int
	Alg       string
	Measured  sim.Time
	Model     sim.Time
	Best      bool
	Pick      bool
}

// collElapsed runs body on a fresh world with the given selection and
// returns the virtual makespan.
func collElapsed(pm logp.Params, procs int, sel splitc.Collectives, body func(p *splitc.Proc)) (sim.Time, error) {
	w, err := splitc.NewWorldCfg(splitc.Config{Procs: procs, Params: pm, Seed: 1, Collectives: sel})
	if err != nil {
		return 0, err
	}
	if err := w.Run(body); err != nil {
		return 0, err
	}
	return w.Elapsed(), nil
}

// collMeasure times one primitive under one algorithm: the makespan of
// collEpisodes episodes minus the makespan of the empty program on the
// same world, divided by the episode count. The subtraction removes the
// constant startup and teardown cost; the average reports the
// steady-state per-episode cost an application sees, pipelining
// between adjacent episodes included.
func collMeasure(pm logp.Params, procs int, sel splitc.Collectives, episode func(p *splitc.Proc, i int)) (sim.Time, error) {
	loop := func(n int) func(p *splitc.Proc) {
		return func(p *splitc.Proc) {
			for i := 0; i < n; i++ {
				episode(p, i)
			}
		}
	}
	full, err := collElapsed(pm, procs, sel, loop(collEpisodes))
	if err != nil {
		return 0, err
	}
	empty, err := collElapsed(pm, procs, sel, loop(0))
	if err != nil {
		return 0, err
	}
	return (full - empty) / collEpisodes, nil
}

// collPrimitives describes the three primitives of the crossover study:
// the registered algorithm list, the model cost, and the measurement
// episode under a given selection.
type collPrimitive struct {
	name string
	algs []string
	sel  func(alg string) splitc.Collectives
	cost func(alg string, p int, m splitc.Model) (sim.Time, error)
	pick func(s splitc.Collectives) string
	ep   func(p *splitc.Proc, i int)
}

func collPrimitives() []collPrimitive {
	return []collPrimitive{
		{
			name: "barrier",
			algs: splitc.BarrierAlgorithms(),
			sel:  func(alg string) splitc.Collectives { return splitc.Collectives{Barrier: alg} },
			cost: splitc.BarrierCost,
			pick: func(s splitc.Collectives) string { return s.Barrier },
			ep:   func(p *splitc.Proc, i int) { p.Barrier() },
		},
		{
			name: "broadcast",
			algs: splitc.BroadcastAlgorithms(),
			sel:  func(alg string) splitc.Collectives { return splitc.Collectives{Broadcast: alg} },
			cost: func(alg string, p int, m splitc.Model) (sim.Time, error) {
				return splitc.BroadcastCost(alg, p, collPayloadBytes, m)
			},
			pick: func(s splitc.Collectives) string { return s.Broadcast },
			// Barrier-separated episodes, with the barrier cost subtracted
			// back out by the paired barrier-only measurement below.
			ep: func(p *splitc.Proc, i int) { p.Broadcast(0, uint64(i+1)); p.Barrier() },
		},
		{
			name: "all-reduce",
			algs: splitc.AllReduceAlgorithms(),
			sel:  func(alg string) splitc.Collectives { return splitc.Collectives{AllReduce: alg} },
			cost: func(alg string, p int, m splitc.Model) (sim.Time, error) {
				return splitc.AllReduceCost(alg, p, collPayloadBytes, m)
			},
			pick: func(s splitc.Collectives) string { return s.AllReduce },
			ep:   func(p *splitc.Proc, i int) { p.AllReduceOp(uint64(p.ID()+1)*uint64(i+1), splitc.OpSum) },
		},
	}
}

// collCrossovers runs the full crossover study: per (primitive,
// machine, size) group, measure every registered algorithm, mark the
// measured winner, and mark the tuner's pick.
func (o Options) collCrossovers() ([]collCross, error) {
	var out []collCross
	for _, prim := range collPrimitives() {
		for _, mc := range o.collMachines() {
			model := splitc.ModelOf(mc.params)
			for _, procs := range o.collProcs() {
				picked := prim.pick(splitc.Select(procs, collPayloadBytes, mc.params))
				group := make([]collCross, 0, len(prim.algs))
				best := 0
				for _, alg := range prim.algs {
					meas, err := collMeasure(mc.params, procs, prim.sel(alg), prim.ep)
					if err != nil {
						return nil, fmt.Errorf("%s/%s P=%d %s: %w", prim.name, mc.name, procs, alg, err)
					}
					if prim.name == "broadcast" {
						// Subtract the separating barrier (same world shape,
						// default barrier selection in both runs).
						bar, err := collMeasure(mc.params, procs, prim.sel(alg),
							func(p *splitc.Proc, i int) { p.Barrier() })
						if err != nil {
							return nil, err
						}
						meas -= bar
					}
					cost, err := prim.cost(alg, procs, model)
					if err != nil {
						return nil, err
					}
					group = append(group, collCross{
						Primitive: prim.name, Machine: mc.name, Procs: procs,
						Alg: alg, Measured: meas, Model: cost, Pick: alg == picked,
					})
					if meas < group[best].Measured {
						best = len(group) - 1
					}
				}
				group[best].Best = true
				out = append(out, group...)
			}
		}
	}
	return out, nil
}

// collKnobs is Part two's sweep axis set: the three fixed-size LogGP
// knobs, each over a short point list (the full figure-5–7 grids would
// triple the run count without moving the tuner's decision points).
type collKnob struct {
	k      core.Knob
	points []float64
}

func collKnobs() []collKnob {
	return []collKnob{
		{core.KnobO, []float64{0, 5, 20, 100}},
		{core.KnobG, []float64{0, 10, 50}},
		{core.KnobL, []float64{0, 25, 100}},
	}
}

// collectivesPlan lists Part two's run matrix: each app at each knob
// point, under the default selection and under "auto" (AddSweep declares
// the baselines of both selections).
func collectivesPlan(o Options, sel []apps.App) []run.Spec {
	var specs []run.Spec
	for _, a := range sel {
		for _, ck := range collKnobs() {
			for _, v := range o.sweepPoints(ck.points) {
				s := o.sweepSpec(a, o.Procs, ck.k, v)
				tuned := s
				tuned.Coll = autoColl()
				specs = append(specs, s, tuned)
			}
		}
	}
	return specs
}

// us renders a sim.Time in microseconds.
func us(d sim.Time) string { return fmt.Sprintf("%.2f", d.Seconds()*1e6) }

// collectivesRender builds the combined table: the crossover rows
// (micro section) followed by the tuned-vs-default sweep rows (app
// section).
func collectivesRender(o Options, sel []apps.App, st *run.Store) (*Table, error) {
	t := &Table{
		ID:    "collectives",
		Title: "Collective algorithm selection: LogGP crossovers and tuned applications",
	}
	t.Columns = []string{"section", "subject", "machine", "P", "algorithm", "measured", "model", "marks"}

	cross, err := o.collCrossovers()
	if err != nil {
		return nil, err
	}
	for _, c := range cross {
		marks := ""
		switch {
		case c.Best && c.Pick:
			marks = "best+pick"
		case c.Best:
			marks = "best"
		case c.Pick:
			marks = "pick"
		}
		t.Rows = append(t.Rows, []string{
			"micro", c.Primitive, c.Machine, fmt.Sprintf("%d", c.Procs),
			c.Alg, us(c.Measured), us(c.Model), marks,
		})
	}

	for _, a := range sel {
		for _, ck := range collKnobs() {
			for _, v := range o.sweepPoints(ck.points) {
				ds := o.sweepSpec(a, o.Procs, ck.k, v)
				ts := ds
				ts.Coll = autoColl()
				dpt, err := st.Point(ds)
				if err != nil {
					return nil, fmt.Errorf("%s %s=%g default: %w", a.Name(), ck.k, v, err)
				}
				tpt, err := st.Point(ts)
				if err != nil {
					return nil, fmt.Errorf("%s %s=%g tuned: %w", a.Name(), ck.k, v, err)
				}
				machine := fmt.Sprintf("%s=%g", ck.k, v)
				if dpt.Livelocked || tpt.Livelocked {
					t.Rows = append(t.Rows,
						[]string{"app", a.PaperName(), machine, fmt.Sprintf("%d", o.Procs), "default", "N/A", "N/A", ""},
						[]string{"app", a.PaperName(), machine, fmt.Sprintf("%d", o.Procs), "tuned", "N/A", "N/A", ""})
					continue
				}
				tuned := splitc.Select(o.Procs, collPayloadBytes, ck.k.Apply(baseParams(), v))
				gain := 100 * (tpt.Elapsed.Seconds()/dpt.Elapsed.Seconds() - 1)
				t.Rows = append(t.Rows,
					[]string{
						"app", a.PaperName(), machine, fmt.Sprintf("%d", o.Procs),
						"default", secs(dpt.Elapsed.Seconds()), f2(dpt.Slowdown), "",
					},
					[]string{
						"app", a.PaperName(), machine, fmt.Sprintf("%d", o.Procs),
						"tuned", secs(tpt.Elapsed.Seconds()), f2(tpt.Slowdown),
						fmt.Sprintf("%+.1f%% %s", gain, tuned),
					})
			}
		}
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("micro rows: measured = per-episode cost (µs) over %d episodes, makespan", collEpisodes),
		"difference against an empty run on the same world; model = closed-form",
		"LogGP cost the tuner minimizes; best = measured winner of the group,",
		"pick = tuner's choice for (P, machine)",
		"app rows: measured = virtual run time (s), model column = slowdown vs the",
		"same selection's baseline; marks = tuned makespan delta vs default and",
		"the selection \"auto\" resolved to at that machine point",
		"broadcast episodes are barrier-separated; the separating barrier's cost",
		"is measured on the same world and subtracted back out")
	return t, nil
}
