// Command benchmark is the repository's host-time benchmark: four
// workloads measured end to end with tracing off, and a traced pass that
// prices each layer. BENCHMARK.json at the root of the repository names
// the workloads, the metrics and their regression bounds; README.md in
// this directory explains the choices.
//
//	bash benchmark/run.sh --workload serve-hot --seed 3 --seconds 20 --trace 0
//	bash benchmark/run.sh                     # every workload, summarised
//	bash benchmark/run.sh -compare A.jsonl B.jsonl
//
// run.sh builds this program and cmd/reprod into .bench_build/ and runs
// it from the root of the checkout. The last line of standard output is
// the run's result as one JSON object; everything for people goes to
// standard error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name     = flag.String("workload", "", "workload to run (default: all of them, each in a child process, then a summary)")
		seed     = flag.Int64("seed", 1, "seed of the workload's inputs")
		seconds  = flag.Float64("seconds", runSeconds, "measuring budget of the timed section")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		out      = flag.String("out", "", "append the run's record (result, host, sample counts) to this JSON-lines file")
		traceOut = flag.String("trace-out", "", "write the traced round's spans to this file")
		smoke    = flag.Bool("smoke", false, "tiny inputs: a few seconds for all four workloads")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments, by BENCHMARK.json's bounds")
		spec     = flag.Bool("print-spec", false, "print BENCHMARK.json as this program defines it, and exit")
		root     = flag.String("root", ".", "root of the checkout")
		reprod   = flag.String("reprod", "", "reprod binary for the served workloads (run.sh builds it)")
		tmp      = flag.String("tmp", "", "scratch directory (default: a fresh one under the system's)")
	)
	flag.Parse()

	if *spec {
		data, err := json.MarshalIndent(currentSpec(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(data))
		return 0
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two -out files")
			return 2
		}
		regressed, err := compareFiles(os.Stdout, filepath.Join(*root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *name == "" {
		common := []string{"-root", *root, "-reprod", *reprod, "-tmp", *tmp}
		if err := runAll(ctx, *seed, *seconds, *smoke, *out, common); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	scratch, err := os.MkdirTemp(*tmp, "bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	c := &config{seed: *seed, seconds: *seconds, size: fullSizes, reprod: *reprod, tmp: scratch}
	switch {
	case *smoke:
		c.size = smokeSizes
	case *seed == 1:
		// The committed results were produced at seed 1 and full size.
		c.goldenTable = filepath.Join(*root, "results", "fig5b.txt")
		c.goldenCounts = filepath.Join(*root, "benchmark", "golden.json")
	}

	var rec *record
	if *trace != 0 {
		rec, err = perLayer(ctx, w, c, *traceOut)
	} else {
		rec, err = endToEnd(ctx, w, c)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	printRecord(os.Stderr, rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// appendRecord adds one JSON line to an -out file.
func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	return errors.Join(err, f.Close())
}
