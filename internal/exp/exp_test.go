package exp

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps/scalekern"
	"repro/internal/apps/suite"
	"repro/internal/run"
)

// quickOpts keeps harness tests fast: few apps, tiny scale, trimmed sweeps.
func quickOpts() Options {
	return Options{
		Procs: 8,
		Scale: 1.0 / 2048,
		Seed:  1,
		Quick: true,
	}
}

// runID runs one registered experiment the way cmd/repro, the daemon
// and benchmark/ do: look it up, then plan, execute and render.
func runID(id string, o Options) (*Table, error) {
	e, err := ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(o)
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig3", "table2", "table3", "fig4", "table4",
		"fig5a", "fig5b", "table5", "fig6", "table6", "fig7", "fig8",
		"ext-burst", "ext-tradeoff", "ext-phases", "profile", "faults",
		"collectives", "scale", "tolerance"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
	}
	if _, err := ByID("fig5b"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("ByID accepted unknown id")
	}
}

// planApps lists the applications a plan runs, in declaration order.
func planApps(p *run.Plan) []string {
	var names []string
	seen := map[string]bool{}
	for _, s := range p.Specs() {
		if !seen[s.App] {
			seen[s.App] = true
			names = append(names, s.App)
		}
	}
	return names
}

// TestExperimentApps pins which applications each registry row runs for
// an -apps selection: the paper rows narrow the paper suite, scale the
// kernels, collectives defaults to its barrier-heavy trio, ext-phases
// runs Radix whatever is asked, and the calibration rows run nothing. A
// refused selection is an error naming the app, from the plan and from
// Run alike.
func TestExperimentApps(t *testing.T) {
	type in struct {
		id   string
		apps []string
	}
	type out struct {
		apps []string // the plan's applications; nil when refused
		err  string   // what the refusal names; "" when accepted
	}
	paper, kernels := suite.Names(), scalekern.Names()
	trio := []string{"radix", "sample", "em3d-write"}
	tests := []struct {
		in  in
		out out
	}{
		{in{"table1", nil}, out{}},
		{in{"table1", []string{"nosuch"}}, out{}},
		{in{"fig3", []string{"scale-radix"}}, out{}},
		{in{"table2", []string{"radix"}}, out{}},
		{in{"table3", nil}, out{apps: paper}},
		{in{"fig5b", nil}, out{apps: paper}},
		{in{"fig5b", []string{"nowsort", "radix"}}, out{apps: []string{"nowsort", "radix"}}},
		{in{"tolerance", []string{"radix"}}, out{apps: []string{"radix"}}},
		{in{"collectives", nil}, out{apps: trio}},
		{in{"collectives", []string{"nowsort"}}, out{apps: []string{"nowsort"}}},
		{in{"ext-phases", nil}, out{apps: []string{"radix"}}},
		{in{"ext-phases", []string{"nowsort"}}, out{apps: []string{"radix"}}},
		{in{"ext-phases", []string{"scale-radix"}}, out{apps: []string{"radix"}}},
		{in{"scale", nil}, out{apps: kernels}},
		{in{"scale", []string{"scale-pray", "scale-radix"}}, out{apps: []string{"scale-pray", "scale-radix"}}},
		{in{"scale", []string{"radix"}}, out{err: `"radix"`}},
		{in{"scale", []string{"scale-radix", "nosuch"}}, out{err: `"nosuch"`}},
		{in{"collectives", []string{"scale-radix"}}, out{err: `"scale-radix"`}},
		{in{"fig5b", []string{"radix", "nosuch"}}, out{err: `"nosuch"`}},
		{in{"table4", []string{"radix", "radix"}}, out{err: `"radix" named twice`}},
		{in{"scale", []string{"scale-radix", "scale-pray", "scale-radix"}}, out{err: `"scale-radix" named twice`}},
	}
	// Every paper row refuses a kernel.
	for _, id := range []string{"table3", "fig4", "table4", "fig5a", "fig5b", "table5", "fig6",
		"table6", "fig7", "fig8", "ext-burst", "ext-tradeoff", "profile", "faults", "tolerance"} {
		tests = append(tests, struct {
			in  in
			out out
		}{in{id, []string{"scale-radix"}}, out{err: `"scale-radix"`}})
	}
	for _, tc := range tests {
		o := quickOpts()
		o.Apps = tc.in.apps
		p, err := PlanFor([]string{tc.in.id}, o)
		if tc.out.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.out.err) {
				t.Errorf("%v: plan error %v, want one naming %s", tc.in, err, tc.out.err)
			}
			e, _ := ByID(tc.in.id)
			if _, err := e.Run(o); err == nil || !strings.Contains(err.Error(), tc.out.err) {
				t.Errorf("%v: Run error %v, want one naming %s", tc.in, err, tc.out.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%v: %v", tc.in, err)
			continue
		}
		if got := planApps(p); strings.Join(got, ",") != strings.Join(tc.out.apps, ",") {
			t.Errorf("%v: runs %v, want %v", tc.in, got, tc.out.apps)
		}
	}
	// One lookup resolves the paper apps and the kernels by name.
	for _, name := range append(append([]string{}, paper...), kernels...) {
		if a, err := ResolveApp(name); err != nil || a.Name() != name {
			t.Errorf("ResolveApp(%q) = %v, %v", name, a, err)
		}
	}
	if _, err := ResolveApp("nosuch"); err == nil || !strings.Contains(err.Error(), "have [") {
		t.Errorf("ResolveApp(nosuch) error %v, want one listing the names", err)
	}
}

func TestTable1(t *testing.T) {
	tab, err := Table1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	if tab.Rows[0][1] != "2.9" {
		t.Errorf("NOW o = %s, want 2.9", tab.Rows[0][1])
	}
	if tab.Rows[1][1] != "1.8" {
		t.Errorf("Paragon o = %s, want 1.8", tab.Rows[1][1])
	}
}

func TestTable2Quick(t *testing.T) {
	tab, err := Table2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 (3 per varied parameter)", len(tab.Rows))
	}
	// The o=102.9 row: observed o must track desired, L must stay ≈5.
	for _, row := range tab.Rows {
		if row[0] == "o" && row[1] == "102.9" {
			if row[2] != "102.9" {
				t.Errorf("observed o = %s, want 102.9", row[2])
			}
			l, _ := strconv.ParseFloat(row[4], 64)
			if l < 4 || l > 6.5 {
				t.Errorf("L = %s under o sweep, want ≈5", row[4])
			}
		}
	}
}

func TestFig3Shape(t *testing.T) {
	tab, err := Fig3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	v1, _ := strconv.ParseFloat(first[1], 64)
	vN, _ := strconv.ParseFloat(last[1], 64)
	if v1 >= vN {
		t.Errorf("Δ=0 curve should rise from o_send (%.2f) toward g (%.2f)", v1, vN)
	}
}

func TestSmallSuiteExperiments(t *testing.T) {
	o := quickOpts()
	o.Apps = []string{"radix", "em3d-read", "nowsort"}
	for _, id := range []string{"table3", "table4", "fig4"} {
		tab, err := runID(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", id)
		}
		if !strings.Contains(tab.Text(), "Radix") {
			t.Errorf("%s: missing Radix row", id)
		}
	}
}

func TestOverheadSweepQuick(t *testing.T) {
	o := quickOpts()
	o.Apps = []string{"radix", "nowsort"}
	tab, err := runID("fig5b", o)
	if err != nil {
		t.Fatal(err)
	}
	// Columns: Δo, Radix, NOW-sort. First row is Δo=0 → slowdown 1.00.
	if tab.Rows[0][1] != "1.00" {
		t.Errorf("baseline slowdown = %s, want 1.00", tab.Rows[0][1])
	}
	lastRadix, _ := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][1], 64)
	lastSort, _ := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][2], 64)
	if lastRadix < 3 {
		t.Errorf("Radix slowdown at Δo=100 = %.2f, want large", lastRadix)
	}
	if lastSort > lastRadix {
		t.Errorf("NOW-sort (%.2f) more o-sensitive than Radix (%.2f)", lastSort, lastRadix)
	}
}

func TestPredictedTableQuick(t *testing.T) {
	o := quickOpts()
	o.Apps = []string{"sample"}
	tab, err := runID("table5", o)
	if err != nil {
		t.Fatal(err)
	}
	// The overhead model should land within 2x of the measurement for the
	// frequently communicating Sample (the paper finds it accurate).
	last := tab.Rows[len(tab.Rows)-1]
	meas, _ := strconv.ParseFloat(last[1], 64)
	pred, _ := strconv.ParseFloat(last[2], 64)
	if meas <= 0 || pred <= 0 {
		t.Fatalf("bad row %v", last)
	}
	ratio := meas / pred
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("Sample measured/predicted = %.2f at Δo=100, want within 2x", ratio)
	}
}

// TestDeterminismAcrossJobs is the run engine's core invariant: each
// simulation is single-goroutine and deterministic, so an experiment
// table must be byte-identical at any worker count.
func TestDeterminismAcrossJobs(t *testing.T) {
	o := quickOpts()
	o.Apps = []string{"radix", "em3d-read", "nowsort"}
	render := func(jobs int) string {
		o := o
		o.Jobs = jobs
		tab, err := runID("fig5b", o)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return tab.Text()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("fig5b differs between jobs=1 and jobs=8:\n--- jobs=1\n%s--- jobs=8\n%s", serial, parallel)
	}
}

// TestProfileQuick exercises the stall-attribution experiment end to end
// on a small app subset: shares must be present, rows must carry the
// conservation-checked breakdown, and gap stall must show up under Δg
// for a bursty sender.
func TestProfileQuick(t *testing.T) {
	o := quickOpts()
	o.Apps = []string{"radix", "nowsort"}
	tab, err := runID("profile", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (2 apps × 3 points)", len(tab.Rows))
	}
	// Column offsets: program, point, run(s), then the share columns in
	// prof display order (gap is the 4th share), then Δmeas, Δpred.
	gapCol := 3 + 3
	share := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("row %v col %d: %v", row, col, err)
		}
		return v
	}
	var radixBaseGap, radixDgGap float64
	for _, row := range tab.Rows {
		if row[0] == "Radix" && row[1] == "baseline" {
			radixBaseGap = share(row, gapCol)
		}
		if row[0] == "Radix" && strings.HasPrefix(row[1], "Δg") {
			radixDgGap = share(row, gapCol)
		}
	}
	if radixDgGap <= radixBaseGap {
		t.Errorf("radix gap share did not grow under Δg: %.1f%% -> %.1f%%", radixBaseGap, radixDgGap)
	}
	// NOW-sort is disk-paced: its sleep share must dominate at baseline.
	for _, row := range tab.Rows {
		if row[0] == "NOW-sort" && row[1] == "baseline" {
			if slp := share(row, 3+9); slp < 20 {
				t.Errorf("NOW-sort sleep share = %.1f%%, want disk-dominated", slp)
			}
		}
	}
}

// TestProfileDeterminismAcrossJobs extends the byte-identity invariant to
// the profile table: stall attribution is part of each run's result, so
// it too must not depend on the worker count.
func TestProfileDeterminismAcrossJobs(t *testing.T) {
	o := quickOpts()
	o.Apps = []string{"radix", "em3d-read", "nowsort"}
	render := func(jobs int) string {
		o := o
		o.Jobs = jobs
		tab, err := runID("profile", o)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return tab.Text()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("profile differs between jobs=1 and jobs=8:\n--- jobs=1\n%s--- jobs=8\n%s", serial, parallel)
	}
}

// TestFaultsQuick exercises the fault-injection experiment end to end on
// a small app subset: the delay probe must report a propagation share,
// the lossless reliable row must stay near slowdown 1 with zero
// retransmissions, and lossy rows must both drop and retransmit.
func TestFaultsQuick(t *testing.T) {
	o := quickOpts()
	o.Apps = []string{"radix", "nowsort"}
	tab, err := runID("faults", o)
	if err != nil {
		t.Fatal(err)
	}
	// 2 apps × (1 delay + 3 quick drop rates).
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tab.Rows))
	}
	const (
		colSlow    = 3
		colProp    = 5
		colRetrans = 6
		colDrops   = 7
	)
	var totalDrops int64
	for _, row := range tab.Rows {
		switch {
		case strings.HasPrefix(row[1], "delay"):
			prop, err := strconv.ParseFloat(row[colProp], 64)
			if err != nil {
				t.Fatalf("delay row %v: prop%% not numeric: %v", row, err)
			}
			if prop < 0 {
				t.Errorf("%s: negative propagation %.1f%%", row[0], prop)
			}
			if row[colRetrans] != "0" || row[colDrops] != "0" {
				t.Errorf("delay row %v retransmitted or dropped", row)
			}
		case row[1] == "reliable, lossless":
			if row[colRetrans] != "0" || row[colDrops] != "0" {
				t.Errorf("lossless reliable row %v retransmitted or dropped", row)
			}
			slow, _ := strconv.ParseFloat(row[colSlow], 64)
			if slow < 0.99 || slow > 1.2 {
				t.Errorf("%s: lossless reliable slowdown = %.2f, want ≈1", row[0], slow)
			}
		default: // lossy rows
			drops, _ := strconv.ParseInt(row[colDrops], 10, 64)
			retrans, _ := strconv.ParseInt(row[colRetrans], 10, 64)
			totalDrops += drops
			// Every loss must eventually be repaired by a retransmission
			// (acks ride a lossless control channel, so none is spurious).
			if retrans < drops {
				t.Errorf("lossy row %v: retrans %d < drops %d", row, retrans, drops)
			}
			slow, _ := strconv.ParseFloat(row[colSlow], 64)
			if slow < 1.0 {
				t.Errorf("lossy row %v: slowdown %.2f < 1", row, slow)
			}
		}
	}
	// Small inputs can dodge the low rates, but across both apps and all
	// rates the wire must have lost something.
	if totalDrops == 0 {
		t.Error("no lossy row dropped anything; injector not wired?")
	}
}

// TestFaultsDeterminismAcrossJobs extends the byte-identity invariant to
// the faults table: fault draws come from each run's own seeded stream,
// so the table must not depend on the worker count.
func TestFaultsDeterminismAcrossJobs(t *testing.T) {
	o := quickOpts()
	o.Apps = []string{"radix", "em3d-read", "nowsort"}
	render := func(jobs int) string {
		o := o
		o.Jobs = jobs
		tab, err := runID("faults", o)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return tab.Text()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("faults differs between jobs=1 and jobs=8:\n--- jobs=1\n%s--- jobs=8\n%s", serial, parallel)
	}
}

// TestMergedPlanSharesRuns checks the cross-experiment reuse the old
// global caches provided: one merged plan for Fig5b + Table5 executes
// the overhead sweep once and renders both tables from the same store.
func TestMergedPlanSharesRuns(t *testing.T) {
	o := quickOpts()
	o.Apps = []string{"radix", "nowsort"}
	ids := []string{"fig5b", "table5"}
	plan, err := PlanFor(ids, o)
	if err != nil {
		t.Fatal(err)
	}
	// 2 apps × (1 baseline + 3 quick points); table5 adds nothing new.
	if plan.Size() != 8 {
		t.Errorf("merged plan size = %d, want 8", plan.Size())
	}
	if plan.Adds() <= plan.Size() {
		t.Errorf("Adds() = %d, want > Size() (table5 duplicates fig5b)", plan.Adds())
	}
	st := run.NewStore()
	if err := DefaultRunner(o, nil).RunInto(st, plan); err != nil {
		t.Fatal(err)
	}
	executed, _ := st.Stats()
	if executed != plan.Size() {
		t.Errorf("executed %d runs, want %d", executed, plan.Size())
	}
	for _, id := range ids {
		tab, err := Render(id, o, st)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", id)
		}
	}
	// Rendering again from the store must not need new runs.
	if _, err := Render("fig5b", o, st); err != nil {
		t.Fatal(err)
	}
	if executedAfter, _ := st.Stats(); executedAfter != executed {
		t.Errorf("re-render executed runs: %d -> %d", executed, executedAfter)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "t",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2,3"}},
		Notes:   []string{"n"},
	}
	txt := tab.Text()
	if !strings.Contains(txt, "== x: t ==") || !strings.Contains(txt, "note: n") {
		t.Errorf("Text() = %q", txt)
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"2,3"`) {
		t.Errorf("CSV() should quote commas: %q", csv)
	}
}

func TestExtBurstQuick(t *testing.T) {
	o := quickOpts()
	o.Apps = []string{"radix", "nowsort"}
	tab, err := runID("ext-burst", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Radix must look bursty; NOW-sort (disk-paced) must not.
	radixBurst := strings.TrimSuffix(tab.Rows[0][2], "%")
	sortBurst := strings.TrimSuffix(tab.Rows[1][2], "%")
	rb, _ := strconv.ParseFloat(radixBurst, 64)
	sb, _ := strconv.ParseFloat(sortBurst, 64)
	if rb < 50 {
		t.Errorf("radix burst fraction = %v%%, want high", rb)
	}
	if sb >= rb {
		t.Errorf("nowsort burstier (%v%%) than radix (%v%%)", sb, rb)
	}
}

func TestExtTradeoffQuick(t *testing.T) {
	o := quickOpts()
	o.Apps = []string{"em3d-write", "nowsort"}
	tab, err := runID("ext-tradeoff", o)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string][]string{}
	for _, row := range tab.Rows {
		byApp[row[0]] = row
	}
	if byApp["EM3D(write)"][4] != "network" {
		t.Errorf("EM3D(write) winner = %s, want network", byApp["EM3D(write)"][4])
	}
	if byApp["NOW-sort"][4] != "CPU" {
		t.Errorf("NOW-sort winner = %s, want CPU (disk/compute bound)", byApp["NOW-sort"][4])
	}
}

func TestExtPhasesQuick(t *testing.T) {
	o := quickOpts()
	tab, err := runID("ext-phases", o)
	if err != nil {
		t.Fatal(err)
	}
	// Histogram share must grow with overhead at fixed P.
	share := func(row []string) float64 {
		v, _ := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		return v
	}
	// Rows come in (procs, dO) blocks of 3: find P=16 dO=0 and dO=100.
	var base16, high16 float64
	for _, row := range tab.Rows {
		if row[1] == "16" && row[0] == "0.0" {
			base16 = share(row)
		}
		if row[1] == "16" && row[0] == "100.0" {
			high16 = share(row)
		}
	}
	if high16 <= base16 {
		t.Errorf("histogram share did not grow with overhead: %v%% -> %v%%", base16, high16)
	}
}

// TestCollectivesTunerMatchesMeasured is the crossover study's
// acceptance check: at every quick-mode (primitive, machine, P) point
// the LogGP tuner's pick must be the measured winner. A failure here
// means a cost model drifted from the engine's actual schedule.
func TestCollectivesTunerMatchesMeasured(t *testing.T) {
	cross, err := quickOpts().Norm().collCrossovers()
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string][2]int{}
	for _, c := range cross {
		key := c.Primitive + "/" + c.Machine + "/" + strconv.Itoa(c.Procs)
		g := groups[key]
		if c.Best {
			g[0]++
		}
		if c.Pick {
			g[1]++
		}
		groups[key] = g
		if c.Best != c.Pick {
			t.Errorf("%s/%s P=%d %s: best=%v pick=%v (measured %v, model %v)",
				c.Primitive, c.Machine, c.Procs, c.Alg, c.Best, c.Pick, c.Measured, c.Model)
		}
	}
	if len(groups) == 0 {
		t.Fatal("no crossover groups")
	}
	for key, g := range groups {
		if g[0] != 1 || g[1] != 1 {
			t.Errorf("%s: %d best and %d pick rows, want exactly 1 of each", key, g[0], g[1])
		}
	}
}

// TestCollectivesQuick sanity-checks the rendered table: both sections
// present, tuned rows annotated with the resolved selection.
func TestCollectivesQuick(t *testing.T) {
	o := quickOpts()
	o.Apps = []string{"radix"}
	tab, err := runID("collectives", o)
	if err != nil {
		t.Fatal(err)
	}
	var micro, app, tuned int
	for _, row := range tab.Rows {
		switch row[0] {
		case "micro":
			micro++
		case "app":
			app++
			if row[4] == "tuned" && !strings.Contains(row[7], "bar=") {
				t.Errorf("tuned row lacks resolved selection: %v", row)
			}
		}
		if row[4] == "tuned" {
			tuned++
		}
	}
	// 3 primitives × 3 quick machines × 2 sizes × 3 algorithms.
	if micro != 54 {
		t.Errorf("micro rows = %d, want 54", micro)
	}
	// 1 app × 3 knobs × 3 quick points × {default, tuned}.
	if app != 18 || tuned != 9 {
		t.Errorf("app rows = %d (tuned %d), want 18 (9)", app, tuned)
	}
}

// TestCollectivesDeterminismAcrossJobs extends the byte-identity
// invariant to the collectives table: per-point tuner resolution
// happens inside each run's own world construction, so the table must
// not depend on the worker count.
func TestCollectivesDeterminismAcrossJobs(t *testing.T) {
	o := quickOpts()
	o.Apps = []string{"radix"}
	render := func(jobs int) string {
		o := o
		o.Jobs = jobs
		tab, err := runID("collectives", o)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return tab.Text()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("collectives differs between jobs=1 and jobs=8:\n--- jobs=1\n%s--- jobs=8\n%s", serial, parallel)
	}
}
