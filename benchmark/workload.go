package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Load shape, fixed so that hosts with at least two cores compare: every
// workload uses exactly two — two pool workers, two daemon workers, two
// closed-loop clients.
const lanes = 2

// config is one invocation's inputs.
type config struct {
	seed    int64
	seconds float64 // measuring budget of the timed section
	size    sizes
	reprod  string // the daemon binary built from the tree
	tmp     string // scratch for cache directories; removed on exit
	// Committed results the outputs are compared with; "" when the seed
	// or the sizes have no committed counterpart.
	goldenTable  string // results/fig5b.txt, for sweep-fig5b
	goldenCounts string // benchmark/golden.json, for scale-10k
}

// sizes are the input sizes. Only the repetition of rounds adapts to the
// time budget; the inputs of one round never do.
type sizes struct {
	sweepProcs   int      // sweep-fig5b cluster size,
	sweepScale   float64  //   input scale
	sweepApps    []string //   and apps (nil = all ten)
	scaleProcs   int      // scale-10k cluster size
	verifyProcs  int      //   and the size its verified set-up pass runs at
	scaleScale   float64
	hotProcs     int     // served hot set: fig5b quick plan at this size
	hotScale     float64 //   and scale, over hotApps
	hotApps      []string
	hotRound     int // serve-hot requests per round
	mixedRound   int // serve-mixed requests per round; classes in mixShares
	coolSpecs    int // pre-warmed tiny specs
	coolScale    float64
	missScale    float64
	tinyProcs    int
	verifyMisses int // every n-th miss is recomputed in-process after timing
	probeDiv     int // the probes' repetition counts are divided by this
}

// fullSizes is what BENCHMARK.json measures.
//
// The served hot set is the fig5b quick plan at the paper's 32 nodes, so
// cache entries have the size and shape a figure regeneration loads
// (≈7.5 KB whatever the app or scale), but at scale 1/4096 and without
// the three apps whose P=32 runs cost a second each even there: the
// daemon and the in-process reference both have to simulate the set in
// every set-up.
var fullSizes = sizes{
	sweepProcs: 32, sweepScale: 1.0 / 256,
	scaleProcs: 10000, verifyProcs: 1000, scaleScale: 1.0 / 256,
	hotProcs: 32, hotScale: 1.0 / 4096,
	hotApps:  []string{"radix", "sample", "pray", "connect", "murphi", "nowsort", "radb"},
	hotRound: 2000, mixedRound: 1200,
	coolSpecs: 1024, coolScale: 1.0 / 65536, missScale: 1.0 / 4096, tinyProcs: 4,
	verifyMisses: 16, probeDiv: 1,
}

// smokeSizes finishes every workload in a second or two, for tests.
var smokeSizes = sizes{
	sweepProcs: 4, sweepScale: 1.0 / 4096, sweepApps: []string{"radix", "pray", "connect", "nowsort", "radb"},
	scaleProcs: 64, verifyProcs: 16, scaleScale: 1.0 / 1024,
	hotProcs: 4, hotScale: 1.0 / 4096,
	hotApps:  []string{"radix", "connect", "radb"},
	hotRound: 200, mixedRound: 200,
	coolSpecs: 16, coolScale: 1.0 / 65536, missScale: 1.0 / 65536, tinyProcs: 4,
	verifyMisses: 4, probeDiv: 20,
}

// op is one operation: one simulation run of a batch workload, one
// request of a served one.
type op struct {
	class  string
	ms     float64
	failed bool
}

// round is the measurement of one fixed unit of a workload's work.
type round struct {
	wall, cpu float64 // seconds; cpu is the measured process's user+sys
	ops       []op
	// lat holds the latencies (ms) the op_* percentiles are taken over:
	// every request of a served round; the round itself for a batch one,
	// because what a researcher waits for is the sweep, not one run of it.
	lat []float64
	// checks and checkFails count the output checks made on the round
	// (rendered table, golden counts); each is one more operation.
	checks, checkFails int
	// counts are exact counters of the round, reported by the traced pass.
	counts map[string]float64
	// note lines go to the human summary.
	notes []string
}

// env is a workload after set-up, ready to be measured.
type env interface {
	// round runs one unit of work; rec is nil on the untraced pass.
	round(ctx context.Context, i int, rec *recorder) (round, error)
	// finish runs the checks that need the whole timed section (server
	// counters, recomputed misses) and reports them like a round's.
	finish(ctx context.Context, rounds []round) (checks, fails int, notes []string, err error)
	// peakRSSMB is the high-water resident set of the measured process.
	peakRSSMB() (float64, error)
	close() error
}

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name string
	why  string
	// setupReps is how often set-up is repeated for its median; set-ups
	// of several seconds run once, or the driver's time cap is spent on
	// them.
	setupReps int
	// setup prepares the workload. A recorder asks a served workload for
	// the in-process server the traced pass needs, whose handler records
	// its spans there; batch workloads ignore it.
	setup func(ctx context.Context, c *config, rec *recorder) (env, error)
}

func workloads() []workload {
	return []workload{
		{name: "sweep-fig5b", setupReps: 1, setup: setupSweep,
			why: "the paper's sensitivity sweep: ten apps on the coroutine runtime behind the 2-worker run pool; apps, splitc and sim hand-offs do the work, service none"},
		{name: "scale-10k", setupReps: 3, setup: setupScale,
			why: "three weak-scaling kernels at P=10000 on the goroutine-free runtime: 0 switches, deep event and proc heaps, per-proc memory; the coroutine shell does nothing"},
		{name: "serve-hot", setupReps: 3, setup: setupServeHot,
			why: "closed loop of 2 clients on a warm reprod: every request a disk hit on a P=32 entry, so decode, hash, flight table, verified load and encode are measured and sim does nothing"},
		{name: "serve-mixed", setupReps: 1, setup: setupServeMixed,
			why: "54% hot hits, 25% hits over 1024 tiny entries, 20% misses that simulate and persist with fsync, 1% warm tables: a hit-path gain that taxes writes or plans shows here"},
	}
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark contract asks for.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as -out appends it: the contract line plus what it
// was measured on, which -compare and the summary need.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	result
	Detail detail `json:"detail"`
}

// detail is what the contract line has no room for.
type detail struct {
	GoVersion string `json:"go_version"`
	NProc     int    `json:"nproc"`
	// CalibMs is the same-process calibration probe of this run; two
	// sets whose medians differ by more than 5 % are not compared.
	CalibMs float64 `json:"host_calib_ms"`
	Rounds  int     `json:"rounds"`
	// Classes are the latencies of each class of operation, pooled over
	// all rounds, with the sample count every percentile rests on.
	Classes []classStats `json:"classes"`
	Notes   []string     `json:"notes,omitempty"`
}

// classStats summarises one class of operation.
type classStats struct {
	Class   string  `json:"class"`
	Samples int     `json:"samples"`
	P50Ms   float64 `json:"p50_ms"`
	// TailQ is the highest percentile with at least ten samples beyond
	// it (0 when the class has too few), TailMs its value.
	TailQ  float64 `json:"tail_q"`
	TailMs float64 `json:"tail_ms"`
}

// measure runs rounds until the budget is used: always one, and another
// only while it is expected, from the mean so far, to end inside the
// budget. Work per round is a fixed count, so counters repeat exactly
// and a slow host measures fewer rounds, not smaller ones.
func measure(ctx context.Context, e env, seconds float64) ([]round, error) {
	var rounds []round
	start := time.Now()
	for i := 0; ; i++ {
		r, err := e.round(ctx, i, nil)
		if err != nil {
			return rounds, err
		}
		rounds = append(rounds, r)
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(len(rounds)) > seconds {
			return rounds, nil
		}
	}
}

// setUp prepares the workload reps times, closing all but the last, and
// returns the last with the median set-up time.
func setUp(ctx context.Context, w workload, c *config) (env, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		e, err := w.setup(ctx, c, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i == w.setupReps-1 {
			return e, median(times), nil
		}
		if err := e.close(); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
	}
}

// endToEnd runs the untraced pass and assembles the end-to-end metrics.
func endToEnd(ctx context.Context, w workload, c *config) (*record, error) {
	calib := hostCalibMs()
	e, setupS, err := setUp(ctx, w, c)
	if err != nil {
		return nil, err
	}
	rec, err := measureEndToEnd(ctx, w, c, e, calib, setupS)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	return rec, err
}

func measureEndToEnd(ctx context.Context, w workload, c *config, e env, calib, setupS float64) (*record, error) {
	rounds, err := measure(ctx, e, c.seconds)
	if err != nil {
		return nil, err
	}
	rss, err := e.peakRSSMB()
	if err != nil {
		return nil, err
	}
	rec, err := newRecord(ctx, w, c, 0, calib, e, rounds)
	if err != nil {
		return nil, err
	}
	per := func(f func(round) float64) float64 {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	pct := func(q float64) float64 {
		return per(func(r round) float64 { return percentile(r.lat, q) })
	}
	rec.Metrics, err = withUnits(endToEndDefs(), map[string]float64{
		"wall_s":      per(func(r round) float64 { return r.wall }),
		"cpu_s":       per(func(r round) float64 { return r.cpu }),
		"ops_per_s":   per(func(r round) float64 { return float64(len(r.lat)) / r.wall }),
		"op_p50_ms":   pct(0.50),
		"op_p90_ms":   pct(0.90),
		"op_p99_ms":   pct(0.99),
		"peak_rss_mb": rss,
		"setup_s":     setupS,
	})
	return rec, err
}

// newRecord runs the workload's closing checks, counts operations and
// summarises classes over the rounds.
func newRecord(ctx context.Context, w workload, c *config, trace int, calib float64, e env, rounds []round) (*record, error) {
	rec := &record{Workload: w.name, Seed: c.seed, Seconds: c.seconds, Trace: trace}
	rec.Detail = detail{GoVersion: runtime.Version(), NProc: runtime.NumCPU(), CalibMs: calib, Rounds: len(rounds)}
	var all []op
	for _, r := range rounds {
		rec.Attempted += len(r.ops) + r.checks
		rec.Failed += countFailed(r.ops) + r.checkFails
		all = append(all, r.ops...)
		rec.Detail.Notes = append(rec.Detail.Notes, r.notes...)
	}
	checks, fails, notes, err := e.finish(ctx, rounds)
	if err != nil {
		return nil, err
	}
	rec.Attempted += checks
	rec.Failed += fails
	rec.Detail.Notes = append(rec.Detail.Notes, notes...)
	rec.Correct = rec.Failed == 0
	rec.Detail.Classes = summarise(all)
	return rec, nil
}

// latencies returns the latencies of the ops of one class ("" = all).
func latencies(ops []op, class string) []float64 {
	xs := make([]float64, 0, len(ops))
	for _, o := range ops {
		if class == "" || o.class == class {
			xs = append(xs, o.ms)
		}
	}
	return xs
}

// summarise digests each class of operation, in class order.
func summarise(ops []op) []classStats {
	seen := map[string]bool{}
	var classes []string
	for _, o := range ops {
		if !seen[o.class] {
			seen[o.class] = true
			classes = append(classes, o.class)
		}
	}
	sort.Strings(classes)
	var out []classStats
	for _, c := range classes {
		xs := latencies(ops, c)
		cs := classStats{Class: c, Samples: len(xs), P50Ms: percentile(xs, 0.5)}
		if q, ok := highestSupported(len(xs)); ok {
			cs.TailQ, cs.TailMs = q, percentile(xs, q)
		}
		out = append(out, cs)
	}
	return out
}

// selfCPU is this process's user+sys CPU time so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// selfPeakRSSMB is this process's ru_maxrss (KB on Linux).
func selfPeakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// procCPU reads a child's user+sys CPU time from /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is in parentheses and may hold spaces; the
	// numbered fields start after the last ')'. utime and stime are
	// fields 14 and 15, that is 12 and 13 of what follows the state.
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime %q %q", pid, f[11], f[12])
	}
	const clockTicks = 100 // USER_HZ, fixed at 100 on Linux
	return (ut + st) / clockTicks, nil
}

// procPeakRSSMB reads a child's VmHWM, the running form of ru_maxrss.
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %q: %w", pid, line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
