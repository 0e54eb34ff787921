package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/scalekern"
	"repro/internal/exp"
	"repro/internal/run"
)

// planEnv is a batch workload: a run plan executed on the worker pool
// and, for the sweep, rendered — the path cmd/repro takes.
type planEnv struct {
	name string
	opts exp.Options
	plan func() (*run.Plan, error)
	// output renders what the researcher reads from a finished store;
	// every round must produce the same bytes.
	output func(*run.Plan, *run.Store) (string, error)
	// golden checks the output against committed results and returns
	// how many cells it compared and how many differed; nil when the
	// seed or size has no committed counterpart.
	golden func(output string) (checked, differing int, err error)
	first  string // the first round's output
}

// sweepOptions is sweep-fig5b's plan: fig5b quick on this seed's inputs.
func (c *config) sweepOptions() exp.Options {
	return exp.Options{Procs: c.size.sweepProcs, Scale: c.size.sweepScale, Apps: c.size.sweepApps, Seed: c.seed, Quick: true, Jobs: lanes}
}

// setupSweep prepares sweep-fig5b: the fig5b quick plan, 40 runs at 32
// nodes. Set-up runs the ten baselines once with Verify, so every app's
// serial self-check has passed on this seed's inputs; the timed rounds
// run unverified, as cmd/repro does by default and as results/ records.
func setupSweep(ctx context.Context, c *config, _ *recorder) (env, error) {
	opts := c.sweepOptions()
	e := &planEnv{
		name: "sweep-fig5b",
		opts: opts,
		plan: func() (*run.Plan, error) { return exp.PlanFor([]string{"fig5b"}, opts) },
		output: func(_ *run.Plan, st *run.Store) (string, error) {
			t, err := exp.Render("fig5b", opts, st)
			if err != nil {
				return "", err
			}
			return t.Text(), nil
		},
	}
	if c.goldenTable != "" {
		want, err := os.ReadFile(c.goldenTable)
		if err != nil {
			return nil, err
		}
		e.golden = func(got string) (int, int, error) { return matchRows(got, string(want)) }
	}
	p, err := e.plan()
	if err != nil {
		return nil, err
	}
	verified := run.NewPlan()
	for _, s := range p.Specs() {
		if s.IsBaseline() {
			verified.AddBaseline(s.App, s.Procs, s.Scale, s.Seed, true)
		}
	}
	return e, runVerified(ctx, opts, verified)
}

// setupScale prepares scale-10k: the three continuation-runtime kernels
// at P=10000, one after the other. The verified set-up pass runs them at
// P=1000: at P=10000 the self-check alone costs a whole round.
func setupScale(ctx context.Context, c *config, _ *recorder) (env, error) {
	opts := exp.Options{Jobs: 1}
	plan := func(procs int, verify bool) *run.Plan {
		p := run.NewPlan()
		for _, name := range scalekern.Names() {
			p.AddBaseline(name, procs, c.size.scaleScale, c.seed, verify)
		}
		return p
	}
	e := &planEnv{
		name:   "scale-10k",
		opts:   opts,
		plan:   func() (*run.Plan, error) { return plan(c.size.scaleProcs, false), nil },
		output: kernelCounts,
	}
	if c.goldenCounts != "" {
		want, err := os.ReadFile(c.goldenCounts)
		if err != nil {
			return nil, err
		}
		e.golden = func(got string) (int, int, error) { return matchGolden(got, want) }
	}
	return e, runVerified(ctx, opts, plan(c.size.verifyProcs, true))
}

// runVerified executes a plan of verified baselines and fails unless
// every self-check ran and passed.
func runVerified(ctx context.Context, opts exp.Options, p *run.Plan) error {
	st := run.NewStore()
	if err := exp.DefaultRunner(opts, nil).RunIntoContext(ctx, st, p); err != nil {
		return err
	}
	for _, s := range p.Specs() {
		res, err := st.Result(s)
		if err != nil {
			return err
		}
		if !res.Verified {
			return fmt.Errorf("%v: self-check did not run", s)
		}
	}
	return nil
}

// kernelCounts is scale-10k's output: per kernel the virtual makespan
// and the message, event and switch counts, as golden.json records them.
func kernelCounts(p *run.Plan, st *run.Store) (string, error) {
	got := map[string]kernelGolden{}
	for _, s := range p.Specs() {
		res, err := st.Result(s)
		if err != nil {
			return "", err
		}
		got[s.App] = kernelGolden{
			ElapsedNs: int64(res.Elapsed), Messages: res.Stats.TotalSent(),
			Events: res.Sched.EventsRun, Switches: res.Sched.Switches,
		}
	}
	data, err := json.Marshal(got) // map keys marshal sorted
	return string(data), err
}

// kernelGolden is one kernel's entry of golden.json.
type kernelGolden struct {
	ElapsedNs int64 `json:"elapsed_ns"`
	Messages  int64 `json:"messages"`
	Events    int64 `json:"events"`
	Switches  int64 `json:"switches"`
}

// goldenFile is golden.json: scale-10k at seed 1, Verify off.
type goldenFile struct {
	Comment string                  `json:"comment"`
	Seed    int64                   `json:"seed"`
	Procs   int                     `json:"procs"`
	Scale   float64                 `json:"scale"`
	Kernels map[string]kernelGolden `json:"kernels"`
}

// matchGolden compares kernelCounts output with golden.json, one cell
// per kernel.
func matchGolden(got string, golden []byte) (checked, differing int, err error) {
	var g goldenFile
	if err := json.Unmarshal(golden, &g); err != nil {
		return 0, 0, fmt.Errorf("golden.json: %w", err)
	}
	var have map[string]kernelGolden
	if err := json.Unmarshal([]byte(got), &have); err != nil {
		return 0, 0, err
	}
	for _, name := range scalekern.Names() {
		checked++
		want, ok := g.Kernels[name]
		if !ok || have[name] != want {
			differing++
		}
	}
	return checked, differing, nil
}

// matchRows compares every data row of a rendered table with the row of
// the committed table that has the same first cell (the Δo value): the
// quick plan renders a subset of the committed rows. A row with no
// counterpart, or a differing cell, counts as differing.
func matchRows(got, want string) (checked, differing int, err error) {
	wantRows := map[string][]string{}
	for _, r := range dataRows(want) {
		wantRows[r[0]] = r
	}
	rows := dataRows(got)
	if len(rows) == 0 {
		return 0, 0, fmt.Errorf("rendered table has no data rows")
	}
	for _, r := range rows {
		w, ok := wantRows[r[0]]
		for i := range r {
			checked++
			if !ok || i >= len(w) || w[i] != r[i] {
				differing++
			}
		}
	}
	return checked, differing, nil
}

// dataRows splits an exp.Table.Text rendering into the cells of its data
// rows: the lines between the dashed rule and the notes.
func dataRows(text string) [][]string {
	var rows [][]string
	inBody := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "--"):
			inBody = true
		case !inBody || line == "" || strings.HasPrefix(line, "note:"):
		default:
			rows = append(rows, strings.Fields(line))
		}
	}
	return rows
}

// tracedApp records a span around App.Run.
type tracedApp struct {
	apps.App
	rec *recorder
}

func (a tracedApp) Run(cfg apps.Config) (apps.Result, error) {
	id := a.rec.begin(0, 0, layerApps, a.Name())
	defer a.rec.end(id)
	return a.App.Run(cfg)
}

func (e *planEnv) round(ctx context.Context, _ int, rec *recorder) (round, error) {
	var (
		mu     sync.Mutex
		ops    []op
		runID  int
		onProg = func(p run.Progress) {
			mu.Lock()
			defer mu.Unlock()
			ops = append(ops, op{class: "run", ms: float64(p.Wall) / float64(time.Millisecond), failed: p.Err != nil})
			if rec != nil && !p.Cached {
				end := rec.now()
				rec.add(runID, layerRun, p.Spec.String(), end-p.Wall, end)
			}
		}
	)
	runner := exp.DefaultRunner(e.opts, onProg)
	if rec != nil {
		runner.Resolve = func(name string) (apps.App, error) {
			a, err := exp.ResolveApp(name)
			return tracedApp{a, rec}, err
		}
	}
	st := run.NewStore()

	root := rec.begin(0, 0, layerBench, e.name)
	cpu0, t0 := selfCPU(), time.Now()

	id := rec.begin(root, 0, layerExp, "plan")
	p, err := e.plan()
	rec.end(id)
	if err != nil {
		return round{}, err
	}
	runID = rec.begin(root, 0, layerRun, "RunInto")
	execStart := time.Now()
	err = runner.RunIntoContext(ctx, st, p)
	execS := time.Since(execStart).Seconds()
	rec.end(runID)
	if ctx.Err() != nil {
		return round{}, ctx.Err()
	}
	var out string
	if err == nil { // a failed run is counted below, not fatal
		id = rec.begin(root, 0, layerExp, "output")
		out, err = e.output(p, st)
		rec.end(id)
	}

	r := round{wall: time.Since(t0).Seconds(), cpu: selfCPU() - cpu0, ops: ops}
	r.lat = []float64{r.wall * 1e3}
	rec.end(root)

	// One check per round: the output exists, repeats the first round's
	// bytes, and matches the committed results where there are any.
	r.checks = 1
	switch {
	case err != nil:
		r.checkFails = 1
		r.notes = append(r.notes, fmt.Sprintf("%s: %v", e.name, err))
	case e.first == "":
		e.first = out
	case out != e.first:
		r.checkFails = 1
		r.notes = append(r.notes, e.name+": output differs from the first round's")
	}
	if err == nil && e.golden != nil {
		checked, differing, gerr := e.golden(out)
		if gerr != nil {
			return round{}, gerr
		}
		if differing > 0 {
			r.checkFails = 1
			r.notes = append(r.notes, fmt.Sprintf("%s: %d of %d cells differ from the committed results", e.name, differing, checked))
		}
	}
	if rec != nil {
		r.counts = planCounts(p, st)
		// The share of the pool's capacity that ran simulations.
		var busy float64
		for _, o := range ops {
			busy += o.ms / 1e3
		}
		r.counts["run.pool_util"] = busy / (float64(runner.Jobs) * execS)
	}
	return r, nil
}

// planCounts sums the simulator's own counters over a finished plan.
func planCounts(p *run.Plan, st *run.Store) map[string]float64 {
	c := map[string]float64{}
	for _, s := range p.Specs() {
		res, err := st.Result(s)
		if err != nil {
			continue
		}
		c["sim.switches"] += float64(res.Sched.Switches)
		c["sim.events"] += float64(res.Sched.EventsRun)
		c["am.messages"] += float64(res.Stats.TotalSent())
	}
	return c
}

func (e *planEnv) finish(context.Context, []round) (int, int, []string, error) {
	return 0, 0, nil, nil
}

func (e *planEnv) peakRSSMB() (float64, error) { return selfPeakRSSMB() }

func (e *planEnv) close() error { return nil }
