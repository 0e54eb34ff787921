// Command appstat runs one benchmark application and prints its full
// communication characterization: the Table 4 row plus the Figure 4
// balance matrix.
//
// Usage:
//
//	appstat -app radix -procs 32 -scale 0.00390625 -verify
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro"
	"repro/internal/apps/scalekern"
)

func main() {
	var (
		name   = flag.String("app", "radix", "application name (see -listapps)")
		listA  = flag.Bool("listapps", false, "list benchmark applications")
		procs  = flag.Int("procs", 32, "cluster size")
		scale  = flag.Float64("scale", 1.0/256, "input scale")
		seed   = flag.Int64("seed", 1, "random seed")
		verify = flag.Bool("verify", false, "check the result against the serial reference")
		dO     = flag.Float64("dO", 0, "added overhead (µs)")
		dG     = flag.Float64("dG", 0, "added gap (µs)")
		dL     = flag.Float64("dL", 0, "added latency (µs)")
		bwCap  = flag.Float64("bw", 0, "bulk bandwidth cap (MB/s)")
		tline  = flag.Bool("timeline", false, "render a per-processor activity timeline (traces every message)")
		doProf = flag.Bool("profile", false, "attach the stall-attribution profiler and print the time breakdown")
	)
	flag.Parse()

	if *listA {
		// The paper suite, then the weak-scaling kernels -app also takes.
		for _, a := range append(repro.Suite(), scalekern.All()...) {
			fmt.Printf("%-11s %s\n", a.Name(), a.Description())
		}
		return
	}

	a, err := repro.AppByName(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "appstat: %v\n", err)
		os.Exit(2)
	}
	params := repro.NOW()
	params.DeltaO = repro.FromMicros(*dO)
	params.DeltaG = repro.FromMicros(*dG)
	params.DeltaL = repro.FromMicros(*dL)
	params.BulkBandwidthMBs = *bwCap
	cfg := repro.AppConfig{Procs: *procs, Scale: *scale, Params: params, Seed: *seed, Verify: *verify}
	cfg.Profile = *doProf
	var rec *repro.TraceRecorder
	if *tline {
		rec = &repro.TraceRecorder{Limit: 2_000_000}
		cfg.Hooks = rec
	}

	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "appstat: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s — %s\n", a.PaperName(), a.Description())
	fmt.Printf("input  : %s\n", a.InputDesc(cfg))
	fmt.Printf("machine: %v\n", params)
	res, err := a.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "appstat: %v\n", err)
		os.Exit(1)
	}
	s := res.Summary
	fmt.Printf("run time          : %v\n", res.Elapsed)
	if *verify {
		fmt.Printf("verified          : %v\n", res.Verified)
	}
	fmt.Printf("avg msgs/proc     : %.0f\n", s.AvgMsgsPerProc)
	fmt.Printf("max msgs/proc     : %d\n", s.MaxMsgsPerProc)
	fmt.Printf("msgs/proc/ms      : %.2f\n", s.MsgsPerProcPerMs)
	fmt.Printf("msg interval      : %.1f µs\n", s.MsgIntervalUs)
	fmt.Printf("barrier interval  : %.2f ms\n", s.BarrierIntervalMs)
	fmt.Printf("bulk messages     : %.2f%%\n", s.PercentBulk)
	fmt.Printf("read messages     : %.2f%%\n", s.PercentReads)
	fmt.Printf("bulk bandwidth    : %.1f KB/s/proc\n", s.BulkKBsPerProc)
	fmt.Printf("small-msg bandwidth: %.1f KB/s/proc\n", s.SmallKBsPerProc)
	extras := make([]string, 0, len(res.Extra))
	for k := range res.Extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		fmt.Printf("%-18s: %.0f\n", k, res.Extra[k])
	}

	fmt.Println("\ncommunication balance (row = sender):")
	shades := []rune(" .:-=+*#%@█")
	var mx int64
	for _, row := range res.Stats.Matrix {
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
	}
	for _, row := range res.Stats.Matrix {
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
		fmt.Println("  " + b.String())
	}

	if res.Profile != nil {
		fmt.Println()
		fmt.Print(res.Profile.Text())
		if err := res.Profile.CheckConservation(); err != nil {
			fmt.Fprintf(os.Stderr, "appstat: %v\n", err)
			os.Exit(1)
		}
	}

	if rec != nil {
		fmt.Println()
		fmt.Println("activity timeline (sends per processor over time):")
		fmt.Print(rec.Timeline(*procs, 100))
	}
}
