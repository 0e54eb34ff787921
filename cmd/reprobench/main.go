// Command reprobench runs the simulator's performance regression matrix
// and emits a machine-readable report (BENCH_sim.json by default).
//
// The matrix exercises the engine's hot paths in host time: a windowed
// short-message stream, a bulk DMA stream, two suite applications, and
// (outside -quick) the fig5b sweep on the parallel worker pool. With
// -baseline the current report is compared case by case against a saved
// one and the command exits 1 when any case's ns/msg grew more than
// -tolerance (default 20%).
//
// Timing figures are host-specific: compare baselines only on the same
// machine and toolchain. The deterministic columns (events run, switches)
// are comparable anywhere.
//
// With -scale the hot-path matrix is replaced by the weak-scaling
// matrix: the three scalekern continuation kernels up the processor
// ladder (to P=1M full, P=10k quick), measuring wall-clock, events/sec,
// and heap bytes per simulated processor. Its report defaults to
// BENCH_scale.json.
//
// Usage:
//
//	reprobench -quick -out BENCH_sim.json
//	reprobench -jobs 8 -out BENCH_sim.json -baseline results/BENCH_baseline.json
//	reprobench -scale -quick -baseline results/BENCH_scale.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "trimmed matrix: fewer messages, no sweep case (CI smoke mode)")
		jobs     = flag.Int("jobs", 0, "worker-pool width for the sweep case (0 = GOMAXPROCS)")
		seed     = flag.Int64("seed", 1, "random seed for application inputs")
		out      = flag.String("out", "BENCH_sim.json", "report output path ('' = stdout table only)")
		baseline = flag.String("baseline", "", "compare against this saved report; exit 1 on regression")
		tol      = flag.Float64("tolerance", bench.DefaultTolerance, "fractional ns/msg growth allowed before failing")
		scale    = flag.Bool("scale", false, "run the weak-scaling matrix instead of the hot-path matrix")
	)
	flag.Parse()

	var rep *bench.Report
	var err error
	if *scale {
		if *out == "BENCH_sim.json" {
			*out = "BENCH_scale.json"
		}
		rep, err = bench.RunScale(bench.ScaleOptions{Quick: *quick, Seed: *seed})
	} else {
		rep, err = bench.Run(bench.Options{Quick: *quick, Jobs: *jobs, Seed: *seed})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprobench: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(rep.Render())
	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			fmt.Fprintf(os.Stderr, "reprobench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("report -> %s\n", *out)
	}
	if *baseline == "" {
		return
	}
	base, err := bench.Load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprobench: %v\n", err)
		os.Exit(1)
	}
	if base.Quick != rep.Quick {
		// Quick and full matrices amortize warm-up over different message
		// counts; their per-message figures are not comparable.
		fmt.Fprintf(os.Stderr, "reprobench: baseline %s was recorded in a different mode (quick=%v vs quick=%v); record a matching baseline\n",
			*baseline, base.Quick, rep.Quick)
		os.Exit(2)
	}
	regs := bench.Compare(rep, base, *tol)
	if len(regs) == 0 {
		fmt.Printf("no regressions vs %s (tolerance %.0f%%)\n", *baseline, *tol*100)
		return
	}
	fmt.Fprintf(os.Stderr, "reprobench: %d regression(s) vs %s:\n", len(regs), *baseline)
	for _, g := range regs {
		fmt.Fprintf(os.Stderr, "  %s\n", g)
	}
	os.Exit(1)
}
