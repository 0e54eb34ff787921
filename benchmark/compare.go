package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
)

// Verdicts of -compare, for one end-to-end metric on one workload.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved (spread > bound)"
	verdictDrifted    = "host drifted"
)

// driftLimit is how far the calibration medians of two sets may differ
// before their timings are not compared at all.
const driftLimit = 0.05

// compareFiles sets the records of two -out files side by side: for every
// end-to-end metric on every workload both medians, the ratio B÷A (A is
// the base), each set's spread, and a verdict by the metric's bound in
// BENCHMARK.json; then the per-layer counts that must repeat. It reports
// whether anything regressed, stayed unresolved, or disagreed.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bad bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (%d runs), B = %s (%d runs); ratios are B ÷ A\n", filepath.Base(pathA), len(a), filepath.Base(pathB), len(b))

	for _, set := range [][]record{a, b} {
		for _, r := range set {
			if r.Failed > 0 || !r.Correct {
				fmt.Fprintf(w, "FAILED RUN: %s seed %d: %d of %d operations failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				bad = true
			}
		}
	}
	calibA, calibB := median(calibs(a)), median(calibs(b))
	drifted := calibA > 0 && math.Abs(calibB/calibA-1) > driftLimit
	fmt.Fprintf(w, "host.calib_ms: A %.3f, B %.3f (%+.1f %%)", calibA, calibB, 100*(calibB/calibA-1))
	if drifted {
		fmt.Fprintf(w, " — more than %.0f %% apart: timings below are reported, not judged", 100*driftLimit)
	}
	fmt.Fprintln(w)

	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "\n%s\n", wl.Name)
		for _, d := range spec.EndToEnd {
			xa, xb := values(a, wl.Name, 0, d.Name), values(b, wl.Name, 0, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "  %-12s missing (A %d runs, B %d runs)\n", d.Name, len(xa), len(xb))
				bad = true
				continue
			}
			v := verdict(d, xa, xb, drifted)
			if v != verdictOK {
				bad = true
			}
			ma, mb := median(xa), median(xb)
			fmt.Fprintf(w, "  %-12s A %11.5g  B %11.5g %-4s ratio %.3f  spread A %4.1f %% B %4.1f %%  bound %2.0f %%  %s\n",
				d.Name, ma, mb, d.Unit, mb/ma, 100*spread(xa), 100*spread(xb), 100*d.Bound, v)
		}
	}

	// Counts of the traced pass, seed by seed.
	fmt.Fprintln(w, "\nper-layer counts (same workload and seed in both sets):")
	checked, differing := 0, 0
	for _, d := range spec.PerLayer {
		tol, compared := exactness(d)
		if !compared {
			continue
		}
		for _, ra := range a {
			if ra.Trace == 0 {
				continue
			}
			for _, rb := range b {
				if rb.Trace == 0 || rb.Workload != ra.Workload || rb.Seed != ra.Seed {
					continue
				}
				va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
				checked++
				// A malloc count near zero may differ by a few mallocs
				// in a hundred thousand operations: allow 0.01 per op.
				if math.Abs(va-vb) > tol*math.Max(math.Abs(va), math.Abs(vb))+tol {
					differing++
					fmt.Fprintf(w, "  %s seed %d: %s A %g B %g %s — differs\n", ra.Workload, ra.Seed, d.Name, va, vb, d.Unit)
				}
			}
		}
	}
	fmt.Fprintf(w, "  %d compared, %d differ\n", checked, differing)
	return bad || differing > 0, nil
}

// verdict judges one metric on one workload by its bound.
func verdict(d metricDef, a, b []float64, drifted bool) string {
	if drifted && d.Unit != "MB" { // memory does not depend on the host's speed
		return verdictDrifted
	}
	ma, mb := median(a), median(b)
	worse := mb/ma - 1 // how much worse B is, as a share of A
	if d.Better == "higher" {
		worse = 1 - mb/ma
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		// Too noisy to resolve a change of the bound's size, unless
		// every run of B reads better than every run of A.
		sa, sb := sorted(a), sorted(b)
		better := sb[len(sb)-1] < sa[0]
		if d.Better == "higher" {
			better = sb[0] > sa[len(sa)-1]
		}
		if !better {
			return verdictUnresolved
		}
	}
	if worse > d.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// values collects one metric of one workload's runs.
func values(recs []record, workload string, trace int, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func calibs(recs []record) []float64 {
	var xs []float64
	for _, r := range recs {
		xs = append(xs, r.Detail.CalibMs)
	}
	return xs
}
