// Package exp is the reproduction harness: one experiment per table and
// figure of the paper's evaluation, each regenerating the corresponding
// rows or curve series on the simulated cluster.
package exp

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/apps/scalekern"
	"repro/internal/apps/suite"
	"repro/internal/logp"
	"repro/internal/model"
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
	// Apps restricts application experiments to a subset (nil = each
	// experiment's own set: the paper's ten for most).
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
// halves the run engine needs: the runs the artifact requires, and a
// Render that builds the table from the completed run store. Declaring
// first lets cmd/repro merge the plans of many experiments and execute
// shared runs exactly once, on a parallel worker pool.
//
// The registry does what every experiment would otherwise repeat: it
// normalizes the Options, resolves the experiment's application set
// against Options.Apps, and declares the listed runs in a run.Plan.
type Experiment struct {
	ID    string
	Title string
	// apps is the application set Plan and Render receive.
	apps appSet
	// Plan lists the experiment's runs for the resolved applications;
	// nil when it needs none (the calibration microbenchmarks). Each is
	// declared with run.Plan.AddSweep, which declares a swept run's
	// baseline with it and a baseline run as itself.
	Plan func(Options, []apps.App) []run.Spec
	// Render builds the table from a store holding the plan's outcomes.
	Render func(Options, []apps.App, *run.Store) (*Table, error)
}

// An appSet names the applications an experiment runs.
type appSet int

const (
	noApps     appSet = iota // none: the calibration microbenchmarks
	paperApps                // the paper suite, narrowed by -apps
	kernelApps               // the weak-scaling kernels, narrowed by -apps
	collTrio                 // -apps, else the barrier-heavy radix, sample, em3d-write
	radixAlone               // Radix, whatever -apps says
)

// resolve picks the set's applications for an -apps selection.
func (s appSet) resolve(names []string) ([]apps.App, error) {
	switch s {
	case paperApps:
		return narrow(suite.All(), names, "suite: unknown application")
	case kernelApps:
		return narrow(scalekern.All(), names, "scalekern: unknown kernel")
	case collTrio:
		if len(names) == 0 {
			names = []string{"radix", "sample", "em3d-write"}
		}
		return paperApps.resolve(names)
	case radixAlone:
		return paperApps.resolve([]string{"radix"})
	}
	return nil, nil
}

// narrow picks the named applications out of set, in the order named;
// no names is the whole set. A name given twice is refused: it would
// render its row twice.
func narrow(set []apps.App, names []string, unknown string) ([]apps.App, error) {
	if len(names) == 0 {
		return set, nil
	}
	out := make([]apps.App, 0, len(names))
	for _, name := range names {
		named := func(a apps.App) bool { return a.Name() == name }
		if slices.ContainsFunc(out, named) {
			return nil, fmt.Errorf("application %q named twice", name)
		}
		i := slices.IndexFunc(set, named)
		if i < 0 {
			have := make([]string, len(set))
			for j, a := range set {
				have[j] = a.Name()
			}
			return nil, fmt.Errorf("%s %q (have %v)", unknown, name, have)
		}
		out = append(out, set[i])
	}
	return out, nil
}

// inputs normalizes the options and resolves the experiment's apps: what
// every Plan and Render call takes.
func (e Experiment) inputs(o Options) (Options, []apps.App, error) {
	o = o.Norm()
	sel, err := e.apps.resolve(o.Apps)
	return o, sel, err
}

// declare adds the experiment's runs to p.
func (e Experiment) declare(p *run.Plan, o Options, sel []apps.App) {
	if e.Plan == nil {
		return
	}
	for _, s := range e.Plan(o, sel) {
		p.AddSweep(s, o.Verify)
	}
}

// Run plans, executes (on Options.Jobs workers), and renders the
// experiment in one call — the single-artifact convenience path.
func (e Experiment) Run(o Options) (*Table, error) {
	o, sel, err := e.inputs(o)
	if err != nil {
		return nil, err
	}
	st := run.NewStore()
	if e.Plan != nil {
		p := run.NewPlan()
		e.declare(p, o, sel)
		if err := DefaultRunner(o, nil).RunInto(st, p); err != nil {
			return nil, err
		}
	}
	return e.Render(o, sel, st)
}

// DefaultRunner builds the runner experiments execute on: the paper's
// baseline machine, Options.Jobs workers, optional progress callback.
func DefaultRunner(o Options, onProgress func(run.Progress)) *run.Runner {
	return &run.Runner{Jobs: o.Jobs, OnProgress: onProgress}
}

// ResolveApp maps an application name to its implementation the way
// every run.Runner does (suite.ByName): a paper application, then a
// weak-scaling kernel.
func ResolveApp(name string) (apps.App, error) { return suite.ByName(name) }

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
		sel, err := e.apps.resolve(o.Apps)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		e.declare(merged, o, sel)
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
	o, sel, err := e.inputs(o)
	if err != nil {
		return nil, err
	}
	return e.Render(o, sel, st)
}

// noRuns adapts a calibration-only experiment to the Render signature.
func noRuns(f func(Options) (*Table, error)) func(Options, []apps.App, *run.Store) (*Table, error) {
	return func(o Options, _ []apps.App, _ *run.Store) (*Table, error) { return f(o) }
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Baseline LogGP parameters (NOW vs Paragon vs Meiko)", noApps, nil, noRuns(Table1)},
		{"fig3", "LogP signature: µs/message vs burst size", noApps, nil, noRuns(Fig3)},
		{"table2", "Calibration: desired vs observed o, g, L independence", noApps, nil, noRuns(Table2)},
		{"table3", "Applications, input sets, and 16/32-node base run times", paperApps, table3Plan, table3Render},
		{"fig4", "Communication balance matrices", paperApps, baselinePlan, fig4Render},
		{"table4", "Communication summary per application", paperApps, baselinePlan, table4Render},
		{"fig5a", "Sensitivity to overhead, 16 nodes (slowdown)", paperApps, overhead16.specs,
			overhead16.slowdown("fig5a", "Slowdown vs added overhead (16 nodes)", "Δo(µs)")},
		{"fig5b", "Sensitivity to overhead, 32 nodes (slowdown)", paperApps, overheadSweep.specs,
			overheadSweep.slowdown("fig5b", "Slowdown vs added overhead (32 nodes)", "Δo(µs)")},
		{"table5", "Measured vs predicted run times varying overhead", paperApps, overheadSweep.specs,
			overheadSweep.predicted("table5", "Measured vs predicted, varying overhead (32 nodes)", "Δo(µs)", model.Overhead)},
		{"fig6", "Sensitivity to gap (slowdown)", paperApps, gapSweep.specs,
			gapSweep.slowdown("fig6", "Slowdown vs added gap (32 nodes)", "Δg(µs)")},
		{"table6", "Measured vs predicted run times varying gap", paperApps, gapSweep.specs,
			gapSweep.predicted("table6", "Measured vs predicted, varying gap (32 nodes)", "Δg(µs)", model.GapBurst)},
		{"fig7", "Sensitivity to latency (slowdown)", paperApps, latencySweep.specs,
			latencySweep.slowdown("fig7", "Slowdown vs added latency (32 nodes)", "ΔL(µs)")},
		{"fig8", "Sensitivity to bulk gap (slowdown vs bandwidth)", paperApps, bulkSweep.specs,
			bulkSweep.slowdown("fig8", "Slowdown vs bulk bandwidth (32 nodes)", "MB/s")},
		{"ext-burst", "Extension: burstiness and the gap models", paperApps, extBurstPlan, extBurstRender},
		{"ext-tradeoff", "Extension: processor vs network investment", paperApps, extTradeoffPlan, extTradeoffRender},
		{"ext-phases", "Extension: Radix phase shares under overhead", radixAlone, extPhasesPlan, extPhasesRender},
		{"profile", "Stall attribution per application (LogGP accountant)", paperApps, profilePlan, profileRender},
		{"faults", "Extension: fault injection — delay propagation and lossy-wire recovery", paperApps, faultsPlan, faultsRender},
		{"collectives", "Extension: collective algorithm selection — LogGP crossovers and tuning", collTrio, collectivesPlan, collectivesRender},
		{"scale", "Weak scaling on the resumable runtime (P to 1M)", kernelApps, scalePlan, scaleRender},
		{"tolerance", "Tolerance to added o, g and L, read off the measured sweeps", paperApps, tolerancePlan, toleranceRender},
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
