// Package bench is the reprobench regression harness: a fixed matrix of
// simulator benchmarks measured in host time (the simulator's own cost,
// not the simulated machine's), emitted as a machine-readable report and
// comparable against a saved baseline with a tolerance.
//
// The matrix pins the hot paths the engine optimizes: a windowed short-
// message stream (ping-pong), a bulk DMA stream, and two applications
// exercising the full splitc/am/sim stack. The full (non-quick) matrix
// adds the fig5b sensitivity sweep on the run-plan worker pool, which is
// how the harness notices regressions that only appear under concurrent
// engine instances.
//
// This package deliberately lives outside the simulator's determinism
// scope: host wall-clock time is its subject matter. Nothing here feeds
// back into simulated results.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/suite"
	"repro/internal/depgraph"
	"repro/internal/exp"
	"repro/internal/logp"
	"repro/internal/sim"
)

// Options selects the matrix variant.
type Options struct {
	// Quick trims message counts and skips the sweep case (CI smoke mode).
	Quick bool
	// Jobs is the worker-pool width for the sweep case (0 = GOMAXPROCS).
	Jobs int
	// Seed fixes the application inputs.
	Seed int64
}

// Norm fills in defaults.
func (o Options) Norm() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Run executes the benchmark matrix and assembles the report.
func Run(o Options) (*Report, error) {
	o = o.Norm()
	r := &Report{
		Schema:    1,
		Quick:     o.Quick,
		Jobs:      o.Jobs,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
	}
	msgs, bulks := 200_000, 2_000
	if o.Quick {
		msgs, bulks = 50_000, 500
	}
	cases := []func() (Case, error){
		func() (Case, error) { return pingPong(msgs) },
		func() (Case, error) { return pingPongDepgraph(msgs) },
		func() (Case, error) { return bulkStream(bulks) },
		func() (Case, error) { return appCase("radix", o) },
		func() (Case, error) { return appCase("em3d-read", o) },
	}
	if !o.Quick {
		cases = append(cases, func() (Case, error) { return sweepCase(o) })
	}
	for _, fn := range cases {
		c, err := fn()
		if err != nil {
			return nil, err
		}
		r.Cases = append(r.Cases, c)
	}
	return r, nil
}

// microReps is how many times the synthetic micro cases repeat; the
// fastest repetition is reported. The simulated work is deterministic,
// so repetitions differ only by host noise (scheduler, frequency
// scaling), and the minimum is the stable estimator — without it the
// ~10 ms quick-mode cases swing tens of percent run to run, which a
// 20% baseline tolerance cannot absorb.
const microReps = 3

// measure wraps one simulation run with wall-clock and allocation
// bookkeeping, repeated reps times keeping the fastest repetition. The
// engine runs single-threaded coroutines, so the mallocs delta is
// attributable to the run.
func measure(name string, messages int64, reps int, run func() (*sim.Engine, error)) (Case, error) {
	var best Case
	for i := 0; i < reps; i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		eng, err := run()
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return Case{}, fmt.Errorf("bench %s: %w", name, err)
		}
		c := Case{
			Name:     name,
			Messages: messages,
			WallMs:   float64(wall.Nanoseconds()) / 1e6,
			Allocs:   int64(after.Mallocs - before.Mallocs),
		}
		if messages > 0 {
			c.NsPerMsg = float64(wall.Nanoseconds()) / float64(messages)
			c.AllocsPerMsg = float64(c.Allocs) / float64(messages)
		}
		if eng != nil {
			c.Switches = eng.Switches()
			c.EventsRun = eng.EventsRun()
			if s := wall.Seconds(); s > 0 {
				c.EventsPerSec = float64(c.EventsRun) / s
			}
		}
		if i == 0 || c.WallMs < best.WallMs {
			best = c
		}
	}
	return best, nil
}

// pingPong is the windowed short-message stream: one sender requests, one
// receiver's handler consumes, credits throttle the window — the exact
// steady state of the zero-allocation send/receive path.
func pingPong(n int) (Case, error) {
	return measure("short-message-stream", int64(n), microReps, func() (*sim.Engine, error) {
		eng := sim.New(sim.Config{Procs: 2})
		m, err := am.NewMachine(eng, logp.NOW())
		if err != nil {
			return nil, err
		}
		seen := 0
		handler := func(*am.Endpoint, *am.Token, am.Args) { seen++ }
		err = eng.RunEach([]func(*sim.Proc){
			func(p *sim.Proc) {
				ep := m.Endpoint(0)
				for i := 0; i < n; i++ {
					ep.Request(1, am.ClassWrite, handler, am.Args{})
				}
				ep.WaitUntil(func() bool { return seen == n }, "bench: drain")
			},
			func(p *sim.Proc) {
				m.Endpoint(1).WaitUntil(func() bool { return seen == n }, "bench: sink")
			},
		})
		return eng, err
	})
}

// pingPongDepgraph is the same windowed short-message stream with a
// depgraph.Builder attached: the delta against short-message-stream pins
// the analytic engine's extraction overhead on the hottest path, and
// AllocsPerMsg pins its zero-per-event-allocation property (the arena
// allocates one chunk per 8k records, amortized to ~0 per message).
// Seal is included — it is part of every instrumented run — but the
// breakpoint analysis is not: that cost scales with curve complexity,
// not message rate, and is pinned by BENCH_tolerance.json instead.
func pingPongDepgraph(n int) (Case, error) {
	return measure("short-message-stream-depgraph", int64(n), microReps, func() (*sim.Engine, error) {
		eng := sim.New(sim.Config{Procs: 2})
		params := logp.NOW()
		m, err := am.NewMachine(eng, params)
		if err != nil {
			return nil, err
		}
		b := depgraph.New(2, params)
		m.SetHooks(b)
		seen := 0
		handler := func(*am.Endpoint, *am.Token, am.Args) { seen++ }
		err = eng.RunEach([]func(*sim.Proc){
			func(p *sim.Proc) {
				ep := m.Endpoint(0)
				for i := 0; i < n; i++ {
					ep.Request(1, am.ClassWrite, handler, am.Args{})
				}
				ep.WaitUntil(func() bool { return seen == n }, "bench: drain")
			},
			func(p *sim.Proc) {
				m.Endpoint(1).WaitUntil(func() bool { return seen == n }, "bench: sink")
			},
		})
		if err != nil {
			return nil, err
		}
		if _, err := b.Seal(eng.MaxClock()); err != nil {
			return nil, fmt.Errorf("seal: %w", err)
		}
		return eng, err
	})
}

// bulkStream is the bulk DMA path: 64 KB StoreLarge transfers, counted in
// fragments (the unit the wire and the credit window see).
func bulkStream(transfers int) (Case, error) {
	params := logp.NOW()
	const size = 64 << 10
	frags := (size + params.FragmentSize - 1) / params.FragmentSize
	return measure("bulk-stream", int64(transfers*frags), microReps, func() (*sim.Engine, error) {
		eng := sim.New(sim.Config{Procs: 2})
		m, err := am.NewMachine(eng, params)
		if err != nil {
			return nil, err
		}
		data := make([]byte, size)
		got := 0
		want := transfers * frags
		handler := func(*am.Endpoint, *am.Token, am.Args, []byte) { got++ }
		err = eng.RunEach([]func(*sim.Proc){
			func(p *sim.Proc) {
				ep := m.Endpoint(0)
				for i := 0; i < transfers; i++ {
					ep.StoreLarge(1, am.ClassWrite, handler, am.Args{}, data)
				}
				ep.WaitUntil(func() bool { return got == want }, "bench: drain")
			},
			func(p *sim.Proc) {
				m.Endpoint(1).WaitUntil(func() bool { return got == want }, "bench: sink")
			},
		})
		return eng, err
	})
}

// appCase runs one suite application at smoke scale through the full
// splitc/am/sim stack.
func appCase(name string, o Options) (Case, error) {
	app, err := suite.ByName(name)
	if err != nil {
		return Case{}, err
	}
	cfg := apps.Config{Procs: 16, Scale: 1.0 / 256, Seed: o.Seed}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := app.Run(cfg)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return Case{}, fmt.Errorf("bench %s: %w", name, err)
	}
	var messages int64
	for _, n := range res.Stats.SentPerProc {
		messages += n
	}
	c := Case{
		Name:      "app-" + name,
		Messages:  messages,
		WallMs:    float64(wall.Nanoseconds()) / 1e6,
		Allocs:    int64(after.Mallocs - before.Mallocs),
		Switches:  res.Sched.Switches,
		EventsRun: res.Sched.EventsRun,
	}
	if messages > 0 {
		c.NsPerMsg = float64(wall.Nanoseconds()) / float64(messages)
		c.AllocsPerMsg = float64(c.Allocs) / float64(messages)
	}
	if s := wall.Seconds(); s > 0 {
		c.EventsPerSec = float64(c.EventsRun) / s
	}
	return c, nil
}

// sweepCase times the fig5b sensitivity sweep end to end on the run-plan
// worker pool — the many-concurrent-engines workload. Only wall-clock is
// meaningful here (allocations include table rendering), so per-message
// figures stay zero.
func sweepCase(o Options) (Case, error) {
	start := time.Now()
	_, err := exp.Fig5b(exp.Options{Quick: true, Jobs: o.Jobs, Seed: o.Seed})
	wall := time.Since(start)
	if err != nil {
		return Case{}, fmt.Errorf("bench sweep: %w", err)
	}
	return Case{
		Name:   "fig5b-sweep",
		WallMs: float64(wall.Nanoseconds()) / 1e6,
	}, nil
}
