package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Report is the BENCH_sim.json payload. All fields are structs and
// slices — deliberately no maps, so the JSON key order and the rendered
// table row order are fixed.
type Report struct {
	// Schema versions the file format.
	Schema int `json:"schema"`
	// Quick records whether the trimmed CI matrix ran.
	Quick bool `json:"quick"`
	// Jobs is the worker-pool width used by the sweep case.
	Jobs int `json:"jobs"`
	// GoVersion and GOARCH identify the toolchain; host-dependent wall
	// times are only comparable when these (and the machine) match.
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	Cases     []Case `json:"cases"`
}

// Case is one benchmark measurement.
type Case struct {
	Name string `json:"name"`
	// Procs is the simulated cluster size, for the scale-matrix cases
	// that sweep it (zero elsewhere).
	Procs int `json:"procs,omitempty"`
	// Messages is the work unit count (short messages, bulk fragments, or
	// application messages); zero when only wall-clock is meaningful.
	Messages int64 `json:"messages"`
	// WallMs is host wall-clock for the run, in milliseconds.
	WallMs float64 `json:"wall_ms"`
	// NsPerMsg is host nanoseconds of simulator work per message — the
	// regression axis.
	NsPerMsg float64 `json:"ns_per_msg"`
	// AllocsPerMsg is heap allocations per message (0 on pooled paths).
	AllocsPerMsg float64 `json:"allocs_per_msg"`
	// Allocs is the raw allocation count for the run.
	Allocs int64 `json:"allocs"`
	// EventsPerSec is discrete events executed per host second.
	EventsPerSec float64 `json:"events_per_sec"`
	// BytesPerProc is heap bytes allocated per simulated processor over
	// the whole run — the scale matrix's memory axis. Weak scaling keeps
	// per-processor work fixed, so this should stay near-flat up the
	// ladder; growth with P means a per-processor cost proportional to
	// the machine size leaked in.
	BytesPerProc float64 `json:"bytes_per_proc,omitempty"`
	// Switches counts hand-offs between blocking bodies' stacks;
	// EventsRun is the event total. These are deterministic per workload,
	// unlike the timing fields.
	Switches  int64 `json:"switches"`
	EventsRun int64 `json:"events_run"`
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a report written by WriteFile.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &r, nil
}

// Render formats the report as an aligned text table.
func (r *Report) Render() string {
	var b strings.Builder
	mode := "full"
	if r.Quick {
		mode = "quick"
	}
	fmt.Fprintf(&b, "reprobench (%s, %s/%s)\n", mode, r.GoVersion, r.GOARCH)
	fmt.Fprintf(&b, "%-24s %12s %10s %10s %12s %14s %12s %12s\n",
		"case", "messages", "wall ms", "ns/msg", "allocs/msg", "events/sec", "B/proc", "switches")
	for _, c := range r.Cases {
		bpp := "-"
		if c.BytesPerProc > 0 {
			bpp = fmt.Sprintf("%.0f", c.BytesPerProc)
		}
		fmt.Fprintf(&b, "%-24s %12d %10.1f %10.1f %12.4f %14.0f %12s %12d\n",
			c.Name, c.Messages, c.WallMs, c.NsPerMsg, c.AllocsPerMsg, c.EventsPerSec, bpp, c.Switches)
	}
	return b.String()
}

// DefaultTolerance is the allowed fractional ns/msg growth before Compare
// reports a regression (20%, wide enough to absorb host noise on shared
// CI runners while catching real hot-path slips).
const DefaultTolerance = 0.20

// Regression describes one case that slowed past tolerance.
type Regression struct {
	Name     string
	BaseNs   float64
	CurNs    float64
	Fraction float64
}

func (g Regression) String() string {
	return fmt.Sprintf("%s: %.1f ns/msg -> %.1f ns/msg (%+.1f%%)",
		g.Name, g.BaseNs, g.CurNs, g.Fraction*100)
}

// Compare checks cur against base case by case. Cases present in only one
// report are ignored (the matrix may grow between baselines); cases
// without a per-message figure compare on wall-clock instead.
func Compare(cur, base *Report, tol float64) []Regression {
	if tol <= 0 {
		tol = DefaultTolerance
	}
	var regs []Regression
	for _, c := range cur.Cases {
		for _, b := range base.Cases {
			if b.Name != c.Name {
				continue
			}
			bv, cv := b.NsPerMsg, c.NsPerMsg
			if bv == 0 || cv == 0 {
				bv, cv = b.WallMs, c.WallMs
			}
			if bv <= 0 {
				break
			}
			frac := cv/bv - 1
			if frac > tol {
				regs = append(regs, Regression{Name: c.Name, BaseNs: bv, CurNs: cv, Fraction: frac})
			}
			break
		}
	}
	return regs
}
