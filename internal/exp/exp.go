// Package exp is the reproduction harness: one experiment per table and
// figure of the paper's evaluation, each regenerating the corresponding
// rows or curve series on the simulated cluster.
package exp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/logp"
	"repro/internal/run"
)

// Options parameterizes a harness run.
type Options struct {
	// Procs is the cluster size for single-size experiments (default 32,
	// the paper's main configuration).
	Procs int
	// Scale is the application input scale (default 1/256 for sweeps;
	// slowdown is a ratio, so shape survives scaling — see DESIGN.md).
	Scale float64
	// Seed fixes all pseudo-randomness.
	Seed int64
	// Apps restricts application experiments to a subset (nil = all ten).
	Apps []string
	// Quick trims sweep points for smoke runs.
	Quick bool
	// Verify runs each application's self-check during baseline runs.
	Verify bool
	// Jobs bounds concurrent simulation runs (0 = GOMAXPROCS). Tables
	// are bit-identical at every job count; jobs only changes wall-clock
	// time.
	Jobs int
}

// Norm fills in defaults.
func (o Options) Norm() Options {
	if o.Procs == 0 {
		o.Procs = 32
	}
	if o.Scale == 0 {
		o.Scale = 1.0 / 256
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Text renders the table with aligned columns.
func (t *Table) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	row(t.Columns)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// Experiment is one reproducible paper artifact, split into the two
// halves the run engine needs: a declarative Plan of every simulation
// the artifact requires, and a Render that builds the table from the
// completed run store. Declaring first lets cmd/repro merge the plans of
// many experiments and execute shared runs exactly once, on a parallel
// worker pool.
type Experiment struct {
	ID    string
	Title string
	// Plan declares the experiment's run matrix; nil when the experiment
	// needs no application runs (the calibration microbenchmarks).
	Plan func(Options) (*run.Plan, error)
	// Render builds the table from a store holding the plan's outcomes.
	Render func(Options, *run.Store) (*Table, error)
}

// Run plans, executes (on Options.Jobs workers), and renders the
// experiment in one call — the single-artifact convenience path.
func (e Experiment) Run(o Options) (*Table, error) {
	o = o.Norm()
	st := run.NewStore()
	if e.Plan != nil {
		p, err := e.Plan(o)
		if err != nil {
			return nil, err
		}
		if err := DefaultRunner(o, nil).RunInto(st, p); err != nil {
			return nil, err
		}
	}
	return e.Render(o, st)
}

// DefaultRunner builds the runner experiments execute on: the paper's
// baseline machine, Options.Jobs workers, optional progress callback.
// Names resolve through the paper suite first, then the weak-scaling
// kernels (ResolveApp).
func DefaultRunner(o Options, onProgress func(run.Progress)) *run.Runner {
	return &run.Runner{Jobs: o.Jobs, Resolve: ResolveApp, OnProgress: onProgress}
}

// PlanFor merges the plans of several experiments so shared runs
// (Fig 5b and Table 5, Fig 6 and Table 6, every baseline) are declared
// once. Experiments with no simulation runs contribute nothing.
func PlanFor(ids []string, o Options) (*run.Plan, error) {
	o = o.Norm()
	merged := run.NewPlan()
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			return nil, err
		}
		if e.Plan == nil {
			continue
		}
		p, err := e.Plan(o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		merged.Merge(p)
	}
	return merged, nil
}

// Render builds one experiment's table from an already-executed store
// (which must hold at least that experiment's plan).
func Render(id string, o Options, st *run.Store) (*Table, error) {
	e, err := ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Render(o.Norm(), st)
}

// noRuns adapts a calibration-only experiment to the Render signature.
func noRuns(f func(Options) (*Table, error)) func(Options, *run.Store) (*Table, error) {
	return func(o Options, _ *run.Store) (*Table, error) { return f(o) }
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Baseline LogGP parameters (NOW vs Paragon vs Meiko)", nil, noRuns(Table1)},
		{"fig3", "LogP signature: µs/message vs burst size", nil, noRuns(Fig3)},
		{"table2", "Calibration: desired vs observed o, g, L independence", nil, noRuns(Table2)},
		{"table3", "Applications, input sets, and 16/32-node base run times", table3Plan, table3Render},
		{"fig4", "Communication balance matrices", fig4Plan, fig4Render},
		{"table4", "Communication summary per application", table4Plan, table4Render},
		{"fig5a", "Sensitivity to overhead, 16 nodes (slowdown)", fig5aPlan, fig5aRender},
		{"fig5b", "Sensitivity to overhead, 32 nodes (slowdown)", fig5bPlan, fig5bRender},
		{"table5", "Measured vs predicted run times varying overhead", table5Plan, table5Render},
		{"fig6", "Sensitivity to gap (slowdown)", fig6Plan, fig6Render},
		{"table6", "Measured vs predicted run times varying gap", table6Plan, table6Render},
		{"fig7", "Sensitivity to latency (slowdown)", fig7Plan, fig7Render},
		{"fig8", "Sensitivity to bulk gap (slowdown vs bandwidth)", fig8Plan, fig8Render},
		{"ext-burst", "Extension: burstiness and the gap models", extBurstPlan, extBurstRender},
		{"ext-tradeoff", "Extension: processor vs network investment", extTradeoffPlan, extTradeoffRender},
		{"ext-phases", "Extension: Radix phase shares under overhead", extPhasesPlan, extPhasesRender},
		{"profile", "Stall attribution per application (LogGP accountant)", profilePlan, profileRender},
		{"faults", "Extension: fault injection — delay propagation and lossy-wire recovery", faultsPlan, faultsRender},
		{"collectives", "Extension: collective algorithm selection — LogGP crossovers and tuning", collectivesPlan, collectivesRender},
		{"scale", "Weak scaling on the resumable runtime (P to 1M)", scalePlan, scaleRender},
		{"tolerance", "Tolerance to added o, g and L, read off the measured sweeps", tolerancePlan, toleranceRender},
	}
}

// ByID locates an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (have %v)", id, ids)
}

// baseParams is the machine every experiment starts from.
func baseParams() logp.Params { return logp.NOW() }

// appConfig builds the application config for an options set.
func (o Options) appConfig(procs int) apps.Config {
	return apps.Config{
		Procs:  procs,
		Scale:  o.Scale,
		Params: baseParams(),
		Seed:   o.Seed,
		Verify: o.Verify,
	}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// secs renders virtual seconds with adaptive precision.
func secs(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 1:
		return fmt.Sprintf("%.2f", s)
	default:
		return fmt.Sprintf("%.4f", s)
	}
}
