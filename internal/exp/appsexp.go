package exp

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/run"
)

// table3Plan lists each application's baseline on 16 and 32 nodes.
func table3Plan(o Options, sel []apps.App) []run.Spec {
	var specs []run.Spec
	for _, a := range sel {
		specs = append(specs, o.baselineSpec(a, 16), o.baselineSpec(a, 32))
	}
	return specs
}

// table3Render reports each application's input set and base run time on
// 16 and 32 nodes.
func table3Render(o Options, sel []apps.App, st *run.Store) (*Table, error) {
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

// baselinePlan lists one baseline per app at the options' cluster size
// (Table 4 and Figure 4 share it).
func baselinePlan(o Options, sel []apps.App) []run.Spec {
	specs := make([]run.Spec, len(sel))
	for i, a := range sel {
		specs[i] = o.baselineSpec(a, o.Procs)
	}
	return specs
}

// table4Render reports the per-application communication summary.
func table4Render(o Options, sel []apps.App, st *run.Store) (*Table, error) {
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

// fig4Render renders each application's communication-balance matrix:
// the fraction of messages from processor i to processor j as a
// grey-scale glyph (' ' for none through '█' for the per-app maximum),
// plus the raw counts in CSV-friendly rows.
func fig4Render(o Options, sel []apps.App, st *run.Store) (*Table, error) {
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
		for i, row := range res.Stats.BalanceRows() {
			label := ""
			if i == 0 {
				label = a.PaperName()
			}
			t.Rows = append(t.Rows, []string{label, row})
		}
		t.Rows = append(t.Rows, []string{"", ""})
	}
	return t, nil
}
