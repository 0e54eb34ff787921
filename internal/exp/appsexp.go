package exp

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/apps/suite"
	"repro/internal/run"
)

// selectedApps resolves the options' application subset.
func selectedApps(o Options) ([]apps.App, error) {
	if len(o.Apps) == 0 {
		return suite.All(), nil
	}
	var out []apps.App
	for _, name := range o.Apps {
		a, err := suite.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// table3Plan declares each application's baseline on 16 and 32 nodes.
func table3Plan(o Options) (*run.Plan, error) {
	o = o.Norm()
	sel, err := selectedApps(o)
	if err != nil {
		return nil, err
	}
	p := run.NewPlan()
	for _, a := range sel {
		p.AddBaseline(a.Name(), 16, o.Scale, o.Seed, o.Verify)
		p.AddBaseline(a.Name(), 32, o.Scale, o.Seed, o.Verify)
	}
	return p, nil
}

// table3Render reports each application's input set and base run time on
// 16 and 32 nodes.
func table3Render(o Options, st *run.Store) (*Table, error) {
	o = o.Norm()
	sel, err := selectedApps(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table3",
		Title:   "Applications and data sets",
		Columns: []string{"Program", "Description", "Input Set", "16-node (s)", "32-node (s)"},
		Notes: []string{
			fmt.Sprintf("inputs at scale %.4g of the paper's; absolute seconds are not comparable, scaling behavior is", o.Scale),
		},
	}
	for _, a := range sel {
		r16, err := st.Result(o.baselineSpec(a, 16))
		if err != nil {
			return nil, fmt.Errorf("%s on 16 nodes: %w", a.Name(), err)
		}
		r32, err := st.Result(o.baselineSpec(a, 32))
		if err != nil {
			return nil, fmt.Errorf("%s on 32 nodes: %w", a.Name(), err)
		}
		t.Rows = append(t.Rows, []string{
			a.PaperName(),
			a.Description(),
			a.InputDesc(o.appConfig(32)),
			secs(r16.Elapsed.Seconds()),
			secs(r32.Elapsed.Seconds()),
		})
	}
	return t, nil
}

// suiteBaselinePlan declares one baseline per selected app at the
// options' cluster size (Table 4 and Figure 4 share it).
func suiteBaselinePlan(o Options) (*run.Plan, error) {
	o = o.Norm()
	sel, err := selectedApps(o)
	if err != nil {
		return nil, err
	}
	p := run.NewPlan()
	for _, a := range sel {
		p.AddBaseline(a.Name(), o.Procs, o.Scale, o.Seed, o.Verify)
	}
	return p, nil
}

func table4Plan(o Options) (*run.Plan, error) { return suiteBaselinePlan(o) }

// table4Render reports the per-application communication summary.
func table4Render(o Options, st *run.Store) (*Table, error) {
	o = o.Norm()
	sel, err := selectedApps(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "table4",
		Title: "Communication summary (32 nodes)",
		Columns: []string{
			"Program", "Avg Msg/Proc", "Max Msg/Proc", "Msg/Proc/ms",
			"Msg Interval(µs)", "Barrier Int.(ms)", "%Bulk", "%Reads",
			"Bulk KB/s", "Small KB/s",
		},
	}
	for _, a := range sel {
		res, err := st.Result(o.baselineSpec(a, o.Procs))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name(), err)
		}
		s := res.Summary
		t.Rows = append(t.Rows, []string{
			a.PaperName(),
			fmt.Sprintf("%.0f", s.AvgMsgsPerProc),
			fmt.Sprintf("%d", s.MaxMsgsPerProc),
			f2(s.MsgsPerProcPerMs),
			f1(s.MsgIntervalUs),
			f2(s.BarrierIntervalMs),
			f2(s.PercentBulk) + "%",
			f2(s.PercentReads) + "%",
			f1(s.BulkKBsPerProc),
			f1(s.SmallKBsPerProc),
		})
	}
	return t, nil
}

func fig4Plan(o Options) (*run.Plan, error) { return suiteBaselinePlan(o) }

// fig4Render renders each application's communication-balance matrix:
// the fraction of messages from processor i to processor j as a
// grey-scale glyph (' ' for none through '█' for the per-app maximum),
// plus the raw counts in CSV-friendly rows.
func fig4Render(o Options, st *run.Store) (*Table, error) {
	o = o.Norm()
	sel, err := selectedApps(o)
	if err != nil {
		return nil, err
	}
	shades := []rune(" .:-=+*#%@█")
	t := &Table{
		ID:      "fig4",
		Title:   fmt.Sprintf("Communication balance (%d nodes, row=sender)", o.Procs),
		Columns: []string{"Program", "Matrix (one row per sender)"},
		Notes: []string{
			"each glyph scales a sender→receiver message count against the app's max cell",
		},
	}
	for _, a := range sel {
		res, err := st.Result(o.baselineSpec(a, o.Procs))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name(), err)
		}
		var mx int64
		for _, row := range res.Stats.Matrix {
			for _, v := range row {
				if v > mx {
					mx = v
				}
			}
		}
		for i, row := range res.Stats.Matrix {
			var b strings.Builder
			for _, v := range row {
				idx := 0
				if mx > 0 && v > 0 {
					idx = 1 + int(int64(len(shades)-2)*v/mx)
					if idx >= len(shades) {
						idx = len(shades) - 1
					}
				}
				b.WriteRune(shades[idx])
			}
			label := ""
			if i == 0 {
				label = a.PaperName()
			}
			t.Rows = append(t.Rows, []string{label, b.String()})
		}
		t.Rows = append(t.Rows, []string{"", ""})
	}
	return t, nil
}
