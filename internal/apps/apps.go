// Package apps defines the benchmark-suite contract: each of the paper's
// ten applications implements App, runs its real algorithm on simulated
// processors (so answers can be verified), charges calibrated compute
// costs, and communicates only through the splitc / am layers.
package apps

import (
	"fmt"
	"math"

	"repro/internal/am"
	"repro/internal/depgraph"
	"repro/internal/fault"
	"repro/internal/logp"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/splitc"
	"repro/internal/tolerance"
)

// Config controls an application run.
type Config struct {
	// Procs is the processor count (the paper uses 16 and 32).
	Procs int
	// Scale sizes the input relative to the paper's data set (Table 3).
	// 1.0 reproduces the paper's sizes; the default harness scale is
	// 1/64, which keeps a full sweep tractable in a simulator while
	// preserving per-processor communication structure.
	Scale float64
	// Params is the machine's LogGP parameterization.
	Params logp.Params
	// Seed makes input generation and scheduling deterministic.
	Seed int64
	// Verify enables the application's self-check against a serial
	// reference (sorted order, conserved checksums, field values, …).
	Verify bool
	// TimeLimit bounds virtual time; livelocked runs (Barnes at high
	// overhead) fail with sim.ErrTimeLimit instead of hanging.
	TimeLimit sim.Time
	// CPUSpeedup, when nonzero, makes local computation this many times
	// faster without touching communication costs (§5.5's tradeoff).
	CPUSpeedup float64
	// Profile attaches a prof.Profiler to the run and fills Result.Profile
	// with the per-processor stall attribution.
	Profile bool
	// Hooks, when non-nil, is attached to the world's instrumentation seam
	// (splitc.World.Attach) alongside any profiler.
	Hooks am.Hooks
	// FaultPlan, when non-nil and non-empty, is compiled with Seed into a
	// deterministic fault.Injector and attached to the machine. A lossy
	// plan (drops or duplications) requires Reliability.Enabled; Validate
	// rejects the combination otherwise, because a lossless-wire protocol
	// cannot survive a lossy wire.
	FaultPlan *fault.Plan
	// Reliability configures the AM-layer reliability protocol
	// (sequencing, dedup, acks, timeout retransmission).
	Reliability am.Reliability
	// Collectives selects the splitc collective algorithms (names from
	// internal/splitc/tune, or splitc.CollAuto to let the LogGP tuner
	// pick against Params). The zero value keeps the historical
	// defaults.
	Collectives splitc.Collectives
	// Depgraph attaches a depgraph.Builder to the run and fills
	// Result.Graph / Result.Curves with the parametric communication DAG
	// and its analytic makespan curves (internal/tolerance). The builder
	// requires a lossless, fault-free wire: NewWorld rejects the
	// combination with FaultPlan or Reliability.
	Depgraph bool
}

// DefaultScale is the harness-wide default input scale.
const DefaultScale = 1.0 / 64

// MaxScale is the largest input scale Config.Validate accepts. At 64×
// the paper's data sets the largest heap any app builds on one processor
// — Radix's and Radb's 16M × 64 ≈ 1.02 G keys at P = 1 — holds under half
// of the 2^31 word offsets a GPtr addresses; above it an input would no
// longer fit.
const MaxScale = 64

// MinCPUSpeedup is the smallest positive CPU factor Config.Validate
// accepts: below it one compute charge can pass the int64 ns clock. The
// largest single Endpoint.Compute charge of the ten apps and three
// kernels is Connect's, and it grows linearly with each processor's
// input: 71.1 ms at P = 4 and scale 1/64, 562 ms at P = 2 and scale 1/16
// (8× the input, 7.9× the charge), so about 1.2e12 ns at MaxScale and
// P = 1. Divided by 2^-20 that is 1.3e18 ns, under 2^63 ≈ 9.2e18. A run
// whose charges add up past the clock still fails with
// am.ErrComputeOverflow.
const MinCPUSpeedup = 1.0 / (1 << 20)

// Norm fills in defaults.
func (c Config) Norm() Config {
	if c.Procs == 0 {
		c.Procs = 32
	}
	if c.Scale == 0 {
		c.Scale = DefaultScale
	}
	if c.Params == (logp.Params{}) {
		c.Params = logp.NOW()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result reports one application run.
type Result struct {
	App     string
	Procs   int
	Elapsed sim.Time
	// Summary is the Table 4 characterization of the run.
	Summary am.Summary
	// Stats is the raw instrumentation (Figure 4 matrix and friends).
	Stats *am.Stats
	// Verified is true when the self-check ran and passed.
	Verified bool
	// Extra carries app-specific measurements (failed lock attempts, …).
	Extra map[string]float64
	// Profile is the stall attribution of the run (nil unless
	// Config.Profile was set).
	Profile *prof.Profile
	// Sched reports the engine's scheduler counters for the run: the
	// host-independent axis (switches, events) that benchmark/ reports
	// per app beside its timings.
	Sched SchedCounters
	// Graph is the parametric communication DAG extracted from the run
	// (nil unless Config.Depgraph was set). Excluded from JSON: it is
	// message-proportional; persist Curves instead.
	Graph *depgraph.Graph `json:"-"`
	// Curves are the analytic makespan curves T(Δo), T(ΔL), T(Δg)
	// derived from Graph (nil unless Config.Depgraph was set and the
	// analysis self-check passed).
	Curves *tolerance.Curves
	// DepgraphErr records why graph extraction or analysis failed for a
	// Depgraph run ("" on success) — e.g. the run did something outside
	// the model's validity region.
	DepgraphErr string `json:",omitempty"`
}

// SchedCounters is the engine's scheduling cost profile for one run.
type SchedCounters struct {
	// Switches is the number of hand-offs between blocking bodies'
	// stacks (0 for a run of Tasks).
	Switches int64
	// EventsRun is the number of discrete events executed.
	EventsRun int64
}

// App is one member of the benchmark suite.
type App interface {
	// Name is the short identifier used by the harness (for example
	// "radix" or "em3d-read").
	Name() string
	// PaperName is the label used in the paper's tables.
	PaperName() string
	// Description is the one-line Table 3 description.
	Description() string
	// InputDesc renders the effective input set for a config.
	InputDesc(cfg Config) string
	// Run executes the application and returns measurements. It must be
	// deterministic for a fixed config.
	Run(cfg Config) (Result, error)
}

// Validate reports a configuration Run refuses (zero fields as Norm
// fills them), without building anything: no processor, a scale outside
// (0, MaxScale], a machine logp refuses, a CPU factor not finite or in
// (0, MinCPUSpeedup), an unknown collective, or a fault plan out of
// range, lossy without reliability or under Depgraph. NewWorld and
// run.Runner.Check call it.
func (c Config) Validate() error {
	c = c.Norm()
	if c.Procs < 1 {
		return fmt.Errorf("apps: procs must be >= 1, got %d", c.Procs)
	}
	if !(c.Scale > 0 && c.Scale <= MaxScale) {
		return fmt.Errorf("apps: scale %g is outside (0, %d]: past the ceiling an input no longer fits a GPtr's int32 offsets", c.Scale, MaxScale)
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if f := c.CPUSpeedup; !(f <= 0 || f >= MinCPUSpeedup) || math.IsInf(f, 0) {
		return fmt.Errorf("apps: CPU speedup %g is not a finite factor >= %g (or <= 0 for the machine's own speed)", f, MinCPUSpeedup)
	}
	if err := c.Collectives.Validate(); err != nil {
		return err
	}
	if c.Depgraph && c.FaultPlan != nil && !c.FaultPlan.Empty() {
		return fmt.Errorf("apps: Depgraph cannot model a faulted wire; drop Config.FaultPlan")
	}
	if c.Depgraph && c.Reliability.Enabled {
		return fmt.Errorf("apps: Depgraph cannot model retransmissions; drop Config.Reliability")
	}
	if c.FaultPlan == nil {
		return nil
	}
	if err := c.FaultPlan.Validate(); err != nil {
		return err
	}
	if c.FaultPlan.Lossy() && !c.Reliability.Enabled {
		return fmt.Errorf("apps: fault plan drops or duplicates messages; set Config.Reliability.Enabled")
	}
	return nil
}

// NewWorld builds the simulation world for a config.
func NewWorld(cfg Config) (*splitc.World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w, err := splitc.NewWorldCfg(splitc.Config{
		Procs:       cfg.Procs,
		Params:      cfg.Params,
		Seed:        cfg.Seed,
		TimeLimit:   cfg.TimeLimit,
		Collectives: cfg.Collectives,
	})
	if err != nil {
		return nil, err
	}
	if cfg.CPUSpeedup > 0 {
		w.Machine().SetCPUFactor(cfg.CPUSpeedup)
	}
	if cfg.Reliability.Enabled {
		w.Machine().SetReliability(cfg.Reliability)
	}
	if cfg.FaultPlan != nil && !cfg.FaultPlan.Empty() {
		inj, err := fault.New(*cfg.FaultPlan, cfg.Seed)
		if err != nil {
			return nil, err
		}
		w.Machine().SetFaults(inj)
	}
	var hs []am.Hooks
	if cfg.Hooks != nil {
		hs = append(hs, cfg.Hooks)
	}
	if cfg.Profile {
		hs = append(hs, prof.New(cfg.Procs))
	}
	if cfg.Depgraph {
		hs = append(hs, depgraph.New(cfg.Procs, cfg.Params))
	}
	if len(hs) > 0 {
		w.Attach(hs...)
	}
	return w, nil
}

// Finish assembles a Result from a completed world.
func Finish(app App, cfg Config, w *splitc.World, verified bool) Result {
	res := Result{
		App:      app.Name(),
		Procs:    cfg.Procs,
		Elapsed:  w.Elapsed(),
		Summary:  w.Stats().Summarize(w.Elapsed()),
		Stats:    w.Stats(),
		Verified: verified,
		Extra:    map[string]float64{},
		Sched: SchedCounters{
			Switches:  w.Engine().Switches(),
			EventsRun: w.Engine().EventsRun(),
		},
	}
	if pf := prof.Attached(w); pf != nil {
		res.Profile = pf.Snapshot(w)
	}
	if b := depgraphAttached(w); b != nil {
		g, err := b.Seal(w.Elapsed())
		if err != nil {
			res.DepgraphErr = err.Error()
			return res
		}
		res.Graph = g
		cs, err := tolerance.Analyze(g)
		if err != nil {
			res.DepgraphErr = err.Error()
			return res
		}
		res.Curves = cs
	}
	return res
}

// depgraphAttached returns the world's depgraph builder (nil when none).
func depgraphAttached(w *splitc.World) *depgraph.Builder {
	for _, h := range w.Attached() {
		if b, ok := h.(*depgraph.Builder); ok {
			return b
		}
	}
	return nil
}

// ScaleInt scales a paper-sized integer quantity, keeping at least min.
// No scale Config.Validate accepts can overflow the product; one that
// does panics rather than come back as some other size.
func ScaleInt(paper int, scale float64, min int) int {
	f := float64(paper)*scale + 0.5
	// !(|f| < MaxInt) also catches NaN.
	if !(math.Abs(f) < math.MaxInt) {
		panic(fmt.Sprintf("apps: %d × scale %g overflows int; Config.Validate refuses scales above %d", paper, scale, MaxScale))
	}
	v := int(f)
	if v < min {
		v = min
	}
	return v
}

// BlockOwner maps a global index to its owner under a block distribution
// of n items over p processors (owner of block ⌈n/p⌉·i .. ).
func BlockOwner(idx, n, p int) int {
	per := (n + p - 1) / p
	return idx / per
}

// BlockRange returns the [lo, hi) global index range owned by proc id.
func BlockRange(id, n, p int) (int, int) {
	per := (n + p - 1) / p
	lo := id * per
	hi := lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}
