// Command repro regenerates the paper's tables and figures on the
// simulated cluster.
//
// All selected experiments are merged into one deduplicated run plan and
// executed on a bounded worker pool before any table is rendered, so
// runs shared between artifacts (Fig 5b and Table 5, Fig 6 and Table 6,
// every baseline) execute exactly once. Tables are bit-identical at
// every -jobs setting; parallelism only changes wall-clock time.
//
// Usage:
//
//	repro -list
//	repro -exp fig5b [-procs 32] [-scale 0.00390625] [-apps radix,sample] [-jobs 8]
//	repro -exp all -quick -csv -out results/
//	repro -exp fig5b -quick -jobs 2 -cpuprofile cpu.out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
)

func main() { os.Exit(run()) }

// run is main returning its exit code, so that the profiles are stopped
// and written on every way out.
func run() int {
	var (
		expID   = flag.String("exp", "", "experiment id (table1..fig8) or 'all' (everything except the hours-long 'scale')")
		list    = flag.Bool("list", false, "list available experiments")
		procs   = flag.Int("procs", 32, "cluster size for single-size experiments")
		scale   = flag.Float64("scale", 1.0/256, "input scale relative to the paper's data sets")
		seed    = flag.Int64("seed", 1, "random seed")
		appsCSV = flag.String("apps", "", "comma-separated application subset (default: all ten)")
		quick   = flag.Bool("quick", false, "trim sweep points for a fast pass")
		verify  = flag.Bool("verify", false, "run application self-checks during baselines")
		jobs    = flag.Int("jobs", 0, "concurrent simulation runs (0 = GOMAXPROCS)")
		csvOut  = flag.Bool("csv", false, "emit CSV instead of aligned text")
		outDir  = flag.String("out", "", "write per-experiment files into this directory")
		quiet   = flag.Bool("quiet", false, "suppress the live progress line and run summary")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "repro: -cpuprofile: %v\n", err)
			}
		}()
	}
	if *memProf != "" {
		defer writeAllocProfile(*memProf)
	}

	if *list {
		for _, e := range repro.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "repro: -exp <id>|all required (see -list)")
		return 2
	}

	opts := repro.Options{
		Procs:  *procs,
		Scale:  *scale,
		Seed:   *seed,
		Quick:  *quick,
		Verify: *verify,
		Jobs:   *jobs,
	}
	if *appsCSV != "" {
		opts.Apps = strings.Split(*appsCSV, ",")
	}

	var ids []string
	if *expID == "all" {
		for _, e := range repro.Experiments() {
			// The scale experiment is explicit-only: its full ladder runs
			// million-processor simulations for hours, and its -apps
			// namespace is the scalekern kernels, not the paper suite.
			if e.ID == "scale" {
				continue
			}
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*expID, ",")
	}

	// Phase 1: one merged plan for every selected experiment.
	plan, err := repro.PlanExperiments(ids, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		return 1
	}

	// Phase 2: execute the plan on the worker pool, narrating progress.
	// An interrupt starts no further run: the runs that did finish are
	// summarized and the exit goes through the deferred profile writers.
	store := repro.NewRunStore()
	if plan.Size() > 0 {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		// A simulation in progress runs to its end, which can be minutes
		// away: after the first interrupt the next one kills the process.
		context.AfterFunc(ctx, stop)
		tracker := newTracker(*quiet)
		runner := repro.NewRunner(opts, tracker.observe)
		start := time.Now()
		err := runner.RunIntoContext(ctx, store, plan)
		tracker.finish()
		if !*quiet {
			_, hits := store.Stats()
			tracker.summarize(os.Stderr, plan, time.Since(start), effectiveJobs(*jobs), hits)
		}
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "repro: interrupted, %d runs not started\n", tracker.canceled)
			return 1
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			return 1
		}
	}

	// Phase 3: render every table from the completed store.
	for _, id := range ids {
		start := time.Now()
		tab, err := repro.RenderExperiment(id, opts, store)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", id, err)
			return 1
		}
		body := tab.Text()
		if *csvOut {
			body = tab.CSV()
		}
		if *outDir != "" {
			ext := ".txt"
			if *csvOut {
				ext = ".csv"
			}
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "repro: %v\n", err)
				return 1
			}
			path := filepath.Join(*outDir, id+ext)
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "repro: %v\n", err)
				return 1
			}
			fmt.Printf("%-8s -> %s (rendered in %v)\n", id, path, time.Since(start).Round(time.Millisecond))
			continue
		}
		fmt.Print(body)
		fmt.Println()
	}
	return 0
}

// writeAllocProfile writes every allocation since the start of the
// process, the profile `go test -memprofile` writes.
func writeAllocProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: -memprofile: %v\n", err)
		return
	}
	runtime.GC() // complete the profile up to now
	err = pprof.Lookup("allocs").WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: -memprofile: %v\n", err)
	}
}

func effectiveJobs(jobs int) int {
	if jobs > 0 {
		return jobs
	}
	return runtime.GOMAXPROCS(0)
}

// tracker renders the live progress line and accumulates per-run
// wall-clock statistics.
type tracker struct {
	mu     sync.Mutex
	quiet  bool
	walls  []time.Duration
	names  []string
	cached int
	// canceled counts the runs an interrupt kept from starting.
	canceled int
	wrote    bool
}

func newTracker(quiet bool) *tracker { return &tracker{quiet: quiet} }

func (t *tracker) observe(p repro.RunProgress) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case errors.Is(p.Err, context.Canceled):
		t.canceled++ // interrupted before it started
	case p.Cached:
		t.cached++
	default:
		t.walls = append(t.walls, p.Wall)
		t.names = append(t.names, p.Spec.String())
	}
	if t.quiet {
		return
	}
	fmt.Fprintf(os.Stderr, "\r\033[K[%d/%d] %v (%v)", p.Done, p.Total, p.Spec, p.Wall.Round(time.Millisecond))
	t.wrote = true
}

// finish terminates the progress line.
func (t *tracker) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wrote {
		fmt.Fprint(os.Stderr, "\r\033[K")
	}
}

// summarize prints simulated-vs-reused counts and per-run wall
// statistics. hits is the store's count of runs it already held; the
// rest of the cached runs are sweep points that were their own baseline.
func (t *tracker) summarize(w *os.File, plan *repro.RunPlan, wall time.Duration, jobs, hits int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.walls) == 0 {
		return
	}
	var total, max time.Duration
	maxName := ""
	for i, d := range t.walls {
		total += d
		if d > max {
			max, maxName = d, t.names[i]
		}
	}
	sorted := append([]time.Duration(nil), t.walls...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	median := sorted[len(sorted)/2]
	dedup := plan.Adds() - plan.Size()
	fmt.Fprintf(w, "repro: executed %d runs in %v (jobs=%d); %d points were their baseline, %d store hits, %d declarations deduplicated\n",
		len(t.walls), wall.Round(time.Millisecond), jobs, t.cached-hits, hits, dedup)
	// No more lanes can be busy than there are runs to put on them.
	jobs = min(jobs, len(t.walls))
	fmt.Fprintf(w, "repro: per-run wall clock: mean %v, median %v, max %v (%s); pool busy %.0f%%\n",
		(total / time.Duration(len(t.walls))).Round(time.Millisecond),
		median.Round(time.Millisecond),
		max.Round(time.Millisecond), maxName,
		100*float64(total)/float64(wall*time.Duration(jobs)))
}
