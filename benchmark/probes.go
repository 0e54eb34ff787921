package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/scalekern"
	"repro/internal/apps/suite"
	"repro/internal/calib"
	"repro/internal/depgraph"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/logp"
	"repro/internal/prof"
	"repro/internal/run"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/splitc"
	"repro/internal/tolerance"
	"repro/internal/trace"
)

// The isolated layer probes: each times calls into one layer's public
// functions from outside, on a fixed small input, and reports host time
// per unit of the layer's own work (event, message, switch, call). They
// run after the traced round, in every traced run of every workload, so
// that a layer's price and the end-to-end number it should move are
// measured minutes apart on one host.

// probeSet collects the probes' metrics.
type probeSet struct {
	c *config
	m map[string]float64
}

func (ps *probeSet) set(name string, v float64) { ps.m[name] = v }

// n scales a repetition count down for the smoke sizes.
func (ps *probeSet) n(full int) int { return max(full/ps.c.size.probeDiv, 1) }

// reps is how often a timed probe repeats for its median.
func (ps *probeSet) reps() int { return ps.n(3 * fullSizes.probeDiv) }

// sample is one timed repetition.
type sample struct {
	ns      float64
	mallocs float64
	bytes   float64 // heap bytes allocated
}

// timed runs fn reps times and returns the median repetition's wall
// time, malloc count and allocated bytes. The simulator runs one goroutine at a time, so the
// process-wide malloc delta belongs to fn.
func timed(reps int, fn func() error) (sample, error) {
	var ns, mallocs, bytes []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := fn(); err != nil {
			return sample{}, err
		}
		ns = append(ns, float64(time.Since(start)))
		runtime.ReadMemStats(&after)
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs))
		bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc))
	}
	return sample{median(ns), median(mallocs), median(bytes)}, nil
}

// runProbes runs every probe and returns its metrics by name.
func runProbes(ctx context.Context, c *config) (map[string]float64, error) {
	ps := &probeSet{c: c, m: map[string]float64{}}
	for _, p := range []struct {
		layer string
		run   func() error
	}{
		{"sim", ps.simProbes},
		{"am", ps.amProbes},
		{"consumers", ps.consumerProbes},
		{"splitc", ps.splitcProbes},
		{"apps", ps.appProbes},
		{"scalekern", ps.scalekernProbes},
		{"run", ps.runProbes},
		{"service", ps.serviceProbes},
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := p.run(); err != nil {
			return nil, fmt.Errorf("%s probes: %w", p.layer, err)
		}
	}
	return ps.m, nil
}

// --- sim ----------------------------------------------------------------

// sleeper is a resumable body that sleeps iters times: it arms a wake
// event and waits for its clock to reach the alarm, as Proc.Sleep does
// for a coroutine body.
type sleeper struct {
	left  int
	until sim.Time
}

func (s *sleeper) Resume(p *sim.Proc) (sim.PollableWait, bool) {
	if s.left == 0 {
		return nil, true
	}
	s.left--
	s.until = p.Clock() + 10
	p.Engine().ScheduleCall(s.until, wakeSleeper, p)
	return s, false
}

func wakeSleeper(arg any, at sim.Time) { arg.(*sim.Proc).WakeAt(at) }

func (s *sleeper) Ready(p *sim.Proc) bool              { return p.Clock() >= s.until }
func (s *sleeper) PollOne(*sim.Proc) bool              { return false }
func (s *sleeper) NextWork(*sim.Proc) (sim.Time, bool) { return 0, false }

func (ps *probeSet) simProbes() error {
	reps := ps.reps()
	// One processor sleeping: schedule a wake event, park, dispatch.
	sleeps := ps.n(200_000)
	var events int64
	s, err := timed(reps, func() error {
		eng := sim.New(sim.Config{Procs: 1})
		err := eng.Run(func(p *sim.Proc) {
			for i := 0; i < sleeps; i++ {
				p.Sleep(10)
			}
		})
		events = eng.EventsRun()
		return err
	})
	if err != nil {
		return err
	}
	ps.set("sim.dispatch_ns_per_event", s.ns/float64(events))

	// Advance + Checkpoint with nothing else runnable: the fast path.
	checks := ps.n(2_000_000)
	s, err = timed(reps, func() error {
		eng := sim.New(sim.Config{Procs: 1})
		return eng.Run(func(p *sim.Proc) {
			for i := 0; i < checks; i++ {
				p.Advance(1)
				p.Checkpoint()
			}
		})
	})
	if err != nil {
		return err
	}
	ps.set("sim.checkpoint_ns", s.ns/float64(checks))

	// 32 processors sleeping in lock-step: every wake hands the CPU to
	// another processor's goroutine.
	lockstep := ps.n(5_000)
	var switches int64
	s, err = timed(reps, func() error {
		eng := sim.New(sim.Config{Procs: 32})
		err := eng.Run(func(p *sim.Proc) {
			for i := 0; i < lockstep; i++ {
				p.Sleep(10)
			}
		})
		switches = eng.Switches()
		return err
	})
	if err != nil {
		return err
	}
	if switches == 0 {
		return fmt.Errorf("lock-step sleepers made no goroutine switches")
	}
	ps.set("sim.handoff_ns_per_switch", s.ns/float64(switches))

	// 10000 resumable bodies sleeping: the same events with no
	// goroutines, on 10k-deep heaps.
	bodies, naps := ps.c.size.scaleProcs, 20
	s, err = timed(reps, func() error {
		eng := sim.New(sim.Config{Procs: bodies})
		rs := make([]sim.Resumable, bodies)
		for i := range rs {
			rs[i] = &sleeper{left: naps}
		}
		err := eng.RunResumables(rs)
		events = eng.EventsRun()
		if err == nil && eng.Switches() != 0 {
			err = fmt.Errorf("resumable run made %d goroutine switches", eng.Switches())
		}
		return err
	})
	if err != nil {
		return err
	}
	ps.set("sim.resumable_ns_per_event", s.ns/float64(events))
	return nil
}

// --- am -----------------------------------------------------------------

// shortStream is the windowed short-message stream of internal/bench: one
// sender requests n times, the receiver's handler consumes, credits
// throttle the window. attach, when non-nil, installs a hooks consumer
// and returns what to do after the run (depgraph's Seal).
func shortStream(n int, attach func(m *am.Machine, params logp.Params) func(*sim.Engine) error) error {
	eng := sim.New(sim.Config{Procs: 2})
	params := logp.NOW()
	m, err := am.NewMachine(eng, params)
	if err != nil {
		return err
	}
	var after func(*sim.Engine) error
	if attach != nil {
		after = attach(m, params)
	}
	seen := 0
	handler := func(*am.Endpoint, *am.Token, am.Args) { seen++ }
	err = eng.RunEach([]func(*sim.Proc){
		func(*sim.Proc) {
			ep := m.Endpoint(0)
			for i := 0; i < n; i++ {
				ep.Request(1, am.ClassWrite, handler, am.Args{})
			}
			ep.WaitUntil(func() bool { return seen == n }, "probe: drain")
		},
		func(*sim.Proc) {
			m.Endpoint(1).WaitUntil(func() bool { return seen == n }, "probe: sink")
		},
	})
	if err == nil && after != nil {
		err = after(eng)
	}
	return err
}

// bulkStream stores transfers 64 KB blocks and returns the fragments
// moved.
func bulkStream(transfers int) (frags int, err error) {
	params := logp.NOW()
	const size = 64 << 10
	frags = transfers * ((size + params.FragmentSize - 1) / params.FragmentSize)
	eng := sim.New(sim.Config{Procs: 2})
	m, err := am.NewMachine(eng, params)
	if err != nil {
		return 0, err
	}
	data := make([]byte, size)
	got := 0
	handler := func(*am.Endpoint, *am.Token, am.Args, []byte) { got++ }
	err = eng.RunEach([]func(*sim.Proc){
		func(*sim.Proc) {
			ep := m.Endpoint(0)
			for i := 0; i < transfers; i++ {
				ep.StoreLarge(1, am.ClassWrite, handler, am.Args{}, data)
			}
			ep.WaitUntil(func() bool { return got == frags }, "probe: drain")
		},
		func(*sim.Proc) {
			m.Endpoint(1).WaitUntil(func() bool { return got == frags }, "probe: sink")
		},
	})
	return frags, err
}

// nopConsumer is the cheapest possible hooks consumer: every event is a
// dynamic call into an empty method.
type nopConsumer struct{ am.NopHooks }

// streamMsgs is the length of every short-stream probe.
func (ps *probeSet) streamMsgs() int { return ps.n(100_000) }

func (ps *probeSet) amProbes() error {
	reps := ps.reps()
	streamMsgs := ps.streamMsgs()
	bare, err := timed(reps, func() error { return shortStream(streamMsgs, nil) })
	if err != nil {
		return err
	}
	ps.set("am.short_ns_per_msg", bare.ns/float64(streamMsgs))
	ps.set("am.short_allocs_per_msg", bare.mallocs/float64(streamMsgs))

	nop, err := timed(reps, func() error {
		return shortStream(streamMsgs, func(m *am.Machine, _ logp.Params) func(*sim.Engine) error {
			m.SetHooks(&nopConsumer{})
			return nil
		})
	})
	if err != nil {
		return err
	}
	ps.set("am.hooks_nop_x", nop.ns/bare.ns)

	var frags int
	bulk, err := timed(reps, func() error {
		var err error
		frags, err = bulkStream(ps.n(500))
		return err
	})
	if err != nil {
		return err
	}
	ps.set("am.bulk_ns_per_frag", bulk.ns/float64(frags))
	ps.set("am.bulk_allocs_per_frag", bulk.mallocs/float64(frags))

	cal, err := timed(reps, func() error {
		_, err := calib.Calibrate(logp.NOW())
		return err
	})
	if err != nil {
		return err
	}
	ps.set("calib.calibrate_ms", cal.ns/1e6)
	return nil
}

// --- prof, trace, depgraph, tolerance, fault ----------------------------

func (ps *probeSet) consumerProbes() error {
	reps := ps.reps()
	streamMsgs := ps.streamMsgs()
	bare := ps.m["am.short_ns_per_msg"] * float64(streamMsgs)
	for _, c := range []struct {
		name   string
		attach func(m *am.Machine, params logp.Params) func(*sim.Engine) error
	}{
		{"prof.stream_x", func(m *am.Machine, _ logp.Params) func(*sim.Engine) error {
			m.SetHooks(prof.New(2))
			return nil
		}},
		{"trace.stream_x", func(m *am.Machine, _ logp.Params) func(*sim.Engine) error {
			m.SetHooks(&trace.Recorder{})
			return nil
		}},
		{"depgraph.stream_x", func(m *am.Machine, params logp.Params) func(*sim.Engine) error {
			b := depgraph.New(2, params)
			m.SetHooks(b)
			return func(eng *sim.Engine) error {
				_, err := b.Seal(eng.MaxClock())
				return err
			}
		}},
	} {
		s, err := timed(reps, func() error { return shortStream(streamMsgs, c.attach) })
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		ps.set(c.name, s.ns/bare)
	}

	// One small run of a real app, plain and with each consumer attached.
	app, err := suite.ByName("radix")
	if err != nil {
		return err
	}
	base := apps.Config{Procs: 8, Scale: 1.0 / 2048, Seed: ps.c.seed}
	var res apps.Result
	runWith := func(mod func(*apps.Config)) (sample, error) {
		return timed(reps, func() error {
			cfg := base
			if mod != nil {
				mod(&cfg)
			}
			var err error
			res, err = app.Run(cfg)
			return err
		})
	}
	plain, err := runWith(nil)
	if err != nil {
		return err
	}
	s, err := runWith(func(c *apps.Config) { c.Profile = true })
	if err != nil {
		return err
	}
	ps.set("prof.run_x", s.ns/plain.ns)
	s, err = runWith(func(c *apps.Config) {
		c.Reliability = am.Reliability{Enabled: true}
		c.FaultPlan = &fault.Plan{Drops: []fault.DropRule{{Match: fault.Any(), Prob: 0.001}}}
	})
	if err != nil {
		return err
	}
	ps.set("fault.reliable_run_x", s.ns/plain.ns)
	s, err = runWith(func(c *apps.Config) { c.Depgraph = true })
	if err != nil {
		return err
	}
	if res.Graph == nil || res.Curves == nil {
		return fmt.Errorf("depgraph run produced no graph: %s", res.DepgraphErr)
	}
	ps.set("depgraph.run_x", s.ns/plain.ns)
	ps.set("depgraph.nodes_per_msg", float64(res.Graph.NumNodes())/float64(res.Stats.TotalSent()))

	g := res.Graph
	s, err = timed(reps, func() error {
		_, err := tolerance.Analyze(g)
		return err
	})
	if err != nil {
		return err
	}
	ps.set("tolerance.analyze_ms", s.ns/1e6)
	curve, _ := res.Curves.ByAxis("o")
	evals := ps.n(1_000_000)
	var sink sim.Time
	s, _ = timed(reps, func() error {
		for i := 0; i < evals; i++ {
			sink += curve.Eval(sim.Time(i % 100_000))
		}
		return nil
	})
	if sink == 0 {
		return fmt.Errorf("tolerance curve evaluates to zero")
	}
	ps.set("tolerance.eval_ns", s.ns/float64(evals))
	return nil
}

// --- splitc -------------------------------------------------------------

func (ps *probeSet) splitcProbes() error {
	const procs = 32
	reps := ps.reps()
	// Every body starts by allocating the same words on every processor,
	// so a neighbour's copy is at the same offset.
	world := func(body func(p *splitc.Proc, mine splitc.GPtr, next splitc.GPtr)) (*splitc.World, error) {
		w, err := splitc.NewWorld(procs, logp.NOW(), ps.c.seed)
		if err != nil {
			return nil, err
		}
		return w, w.Run(func(p *splitc.Proc) {
			mine := p.Alloc(4 * logp.NOW().FragmentSize / 8) // room for the bulk put
			next := splitc.GPtr{Proc: int32((p.ID() + 1) % procs), Off: mine.Off}
			p.Barrier()
			body(p, mine, next)
		})
	}
	for _, pr := range []struct {
		name  string
		calls int // per processor
		per   int // units per call (fragments of a bulk put)
		body  func(p *splitc.Proc, calls int, mine, next splitc.GPtr)
		// switches names the metric that takes switches per call.
		switches string
	}{
		{name: "splitc.read_ns", calls: 2000, switches: "splitc.read_switches_per_op",
			body: func(p *splitc.Proc, n int, _, next splitc.GPtr) {
				for i := 0; i < n; i++ {
					p.ReadWord(next)
				}
			}},
		{name: "splitc.write_ns", calls: 4000,
			body: func(p *splitc.Proc, n int, _, next splitc.GPtr) {
				for i := 0; i < n; i++ {
					p.WriteWord(next, uint64(i))
				}
				p.StoreSync()
			}},
		{name: "splitc.bulkput_ns_per_frag", calls: 200, per: 4,
			body: func(p *splitc.Proc, n int, _, next splitc.GPtr) {
				vals := make([]uint64, 4*logp.NOW().FragmentSize/8)
				for i := 0; i < n; i++ {
					p.BulkPut(next, vals)
				}
				p.StoreSync()
			}},
		{name: "splitc.barrier_ns", calls: 500, switches: "splitc.barrier_switches_per_op",
			body: func(p *splitc.Proc, n int, _, _ splitc.GPtr) {
				for i := 0; i < n; i++ {
					p.Barrier()
				}
			}},
		{name: "splitc.allreduce_ns", calls: 300,
			body: func(p *splitc.Proc, n int, _, _ splitc.GPtr) {
				for i := 0; i < n; i++ {
					p.AllReduceSum(uint64(p.ID()))
				}
			}},
		{name: "splitc.broadcast_ns", calls: 300,
			body: func(p *splitc.Proc, n int, _, _ splitc.GPtr) {
				for i := 0; i < n; i++ {
					p.Broadcast(0, uint64(i))
				}
			}},
		{name: "splitc.lock_ns", calls: 1000,
			// Each processor takes and releases its neighbour's lock word:
			// remote and uncontended.
			body: func(p *splitc.Proc, n int, _, next splitc.GPtr) {
				for i := 0; i < n; i++ {
					p.Lock(next)
					p.Unlock(next)
					p.StoreSync()
				}
			}},
	} {
		var switches int64
		calls := ps.n(pr.calls)
		s, err := timed(reps, func() error {
			w, err := world(func(p *splitc.Proc, mine, next splitc.GPtr) { pr.body(p, calls, mine, next) })
			if err == nil {
				switches = w.Engine().Switches()
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", pr.name, err)
		}
		units := float64(calls * procs * max(pr.per, 1))
		ps.set(pr.name, s.ns/units)
		if pr.switches != "" {
			ps.set(pr.switches, float64(switches)/float64(calls*procs))
		}
	}
	return nil
}

// --- apps, scalekern ----------------------------------------------------

// appRun times one App.Run and returns the sample with the result.
func appRun(app apps.App, cfg apps.Config, reps int) (sample, apps.Result, error) {
	var res apps.Result
	s, err := timed(reps, func() error {
		var err error
		res, err = app.Run(cfg)
		return err
	})
	return s, res, err
}

func (ps *probeSet) appProbes() error {
	for _, app := range suite.All() {
		cfg := apps.Config{Procs: ps.c.size.sweepProcs, Scale: ps.c.size.sweepScale, Seed: ps.c.seed}
		s, res, err := appRun(app, cfg, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name(), err)
		}
		msgs := float64(res.Stats.TotalSent())
		prefix := "apps." + app.Name()
		ps.set(prefix+".ns_per_msg", s.ns/msgs)
		ps.set(prefix+".allocs_per_msg", s.mallocs/msgs)
		ps.set(prefix+".switches_per_msg", float64(res.Sched.Switches)/msgs)
	}
	return nil
}

func (ps *probeSet) scalekernProbes() error {
	small, large := ps.c.size.verifyProcs, ps.c.size.scaleProcs
	for _, app := range scalekern.All() {
		prefix := "scalekern." + app.Name()
		for _, procs := range []int{small, large} {
			s, res, err := appRun(app, apps.Config{Procs: procs, Scale: ps.c.size.scaleScale, Seed: ps.c.seed}, 1)
			if err != nil {
				return fmt.Errorf("%s P=%d: %w", app.Name(), procs, err)
			}
			perEvent := s.ns / float64(res.Sched.EventsRun)
			if procs == small {
				ps.set(prefix+".ns_per_event_p1000", perEvent)
				continue
			}
			ps.set(prefix+".ns_per_event_p10000", perEvent)
			ps.set(prefix+".bytes_per_proc_p10000", s.bytes/float64(procs))
			ps.set(prefix+".allocs_per_msg_p10000", s.mallocs/float64(res.Stats.TotalSent()))
		}
	}
	return nil
}

// --- run, exp -----------------------------------------------------------

func (ps *probeSet) runProbes() error {
	reps := ps.reps()
	s, err := timed(reps, func() error {
		_, err := exp.PlanFor([]string{"fig5b"}, ps.c.sweepOptions())
		return err
	})
	if err != nil {
		return err
	}
	ps.set("exp.plan_ms", s.ns/1e6)

	// A store filled by the cheap hot set stands in for a finished sweep:
	// rendering and re-running over a full store do not depend on what
	// the runs cost.
	opts := ps.c.hotOptions()
	p, err := exp.PlanFor([]string{"fig5b"}, opts)
	if err != nil {
		return err
	}
	st := run.NewStore()
	runner := exp.DefaultRunner(opts, nil)
	if err := runner.RunInto(st, p); err != nil {
		return err
	}
	s, err = timed(reps, func() error {
		_, err := exp.Render("fig5b", opts, st)
		return err
	})
	if err != nil {
		return err
	}
	ps.set("exp.render_ms", s.ns/1e6)
	again := ps.n(200)
	s, err = timed(reps, func() error {
		for i := 0; i < again; i++ {
			if err := runner.RunInto(st, p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ps.set("run.cached_ns_per_spec", s.ns/float64(again*p.Size()))

	specs := p.Specs()
	hashes := ps.n(100_000)
	var sink int
	s, _ = timed(reps, func() error {
		for i := 0; i < hashes; i++ {
			sink += len(specs[i%len(specs)].Hash())
		}
		return nil
	})
	if sink == 0 {
		return fmt.Errorf("Spec.Hash returned nothing")
	}
	ps.set("run.hash_ns", s.ns/float64(hashes))
	return nil
}

// --- service ------------------------------------------------------------

// each times fn once per call, n times, and returns the median in
// microseconds: for operations long enough (tens of µs and more) that
// the clock's resolution does not matter and whose tail should not
// move the figure.
func each(n int, fn func(i int) error) (float64, error) {
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start))/float64(time.Microsecond))
	}
	return median(us), nil
}

func (ps *probeSet) serviceProbes() error {
	c := ps.c
	dir, err := os.MkdirTemp(c.tmp, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	runner := exp.DefaultRunner(exp.Options{}, nil)
	big := runner.ExecBaseline(run.Baseline("radix", c.size.hotProcs, c.size.hotScale, c.seed, false))
	tiny := runner.ExecBaseline(run.Baseline("radix", c.size.tinyProcs, c.size.coolScale, c.seed, false))
	if err := errors.Join(big.Err, tiny.Err); err != nil {
		return err
	}

	// DiskStore alone.
	ds, err := service.NewDiskStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	us, err := each(ps.n(50), func(int) error { return ds.Store(big) })
	if err != nil {
		return err
	}
	ps.set("service.disk_store_us", us)
	if err := ds.Store(tiny); err != nil {
		return err
	}
	for _, l := range []struct {
		name string
		out  run.Outcome
	}{{"service.disk_load_us_p32", big}, {"service.disk_load_us_tiny", tiny}} {
		us, err := each(ps.n(500), func(int) error {
			_, found, err := ds.Load(l.out.Spec)
			if err == nil && !found {
				err = fmt.Errorf("%v not in the store", l.out.Spec)
			}
			return err
		})
		if err != nil {
			return err
		}
		ps.set(l.name, us)
	}
	h := big.Spec.Hash()
	fi, err := os.Stat(filepath.Join(ds.Root(), "objects", h[:2], h+".json"))
	if err != nil {
		return err
	}
	ps.set("service.entry_kb_p32", float64(fi.Size())/1024)

	// Request decoding: body → RunRequest → canonical spec.
	minimal, full := runBody(big.Spec, true), runBody(big.Spec, false)
	decodes := ps.n(20_000)
	s, err := timed(ps.reps(), func() error {
		for i := 0; i < decodes; i++ {
			var rq service.RunRequest
			dec := json.NewDecoder(bytes.NewReader(minimal))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&rq); err != nil {
				return err
			}
			if _, err := rq.SpecJSON.Spec(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ps.set("service.wire_decode_us", s.ns/float64(decodes)/1e3)

	// The scheduler alone: submit a no-op, wait for it to run.
	sched := service.NewScheduler(lanes, 1024)
	us, err = each(ps.n(2000), func(int) error {
		done := make(chan struct{})
		if err := sched.Submit("probe", func() { close(done) }); err != nil {
			return err
		}
		<-done
		return nil
	})
	sched.Close()
	if err != nil {
		return err
	}
	ps.set("service.sched_submit_us", us)

	// The handler with no socket: ServeHTTP on a recorder.
	srv, err := service.New(service.Config{CacheDir: filepath.Join(dir, "daemon"), Workers: lanes})
	if err != nil {
		return err
	}
	defer srv.Close()
	handler := srv.Handler()
	post := func(path string, body []byte) error {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", path, w.Code, bytes.TrimSpace(w.Body.Bytes()))
		}
		return nil
	}
	if err := post("/v1/run", minimal); err != nil { // computes and persists
		return err
	}
	hitUs, err := each(ps.n(500), func(int) error { return post("/v1/run", minimal) })
	if err != nil {
		return err
	}
	ps.set("service.handler_hit_us", hitUs)
	if us, err = each(ps.n(500), func(int) error { return post("/v1/run", full) }); err != nil {
		return err
	}
	ps.set("service.handler_hit_full_us", us)

	// The same hit through a socket: what net/http adds on both sides.
	ts := httptest.NewServer(handler)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	us, err = each(ps.n(500), func(int) error {
		resp, err := client.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(minimal))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var a answer
		return json.NewDecoder(resp.Body).Decode(&a)
	})
	client.CloseIdleConnections()
	ts.Close()
	if err != nil {
		return err
	}
	ps.set("service.http_overhead_us", us-hitUs)

	// A miss: what the handler adds to the simulation and the write.
	missSpec := func(i int) run.Spec {
		return run.Baseline("radix", c.size.tinyProcs, c.size.missScale, 2_000_000_000+c.seed*1000+int64(i), false)
	}
	execUs, err := each(ps.n(20), func(i int) error { return runner.ExecBaseline(missSpec(i)).Err })
	if err != nil {
		return err
	}
	ps.set("service.exec_miss_ms", execUs/1e3)
	missUs, err := each(ps.n(20), func(i int) error { return post("/v1/run", runBody(missSpec(i), true)) })
	if err != nil {
		return err
	}
	ps.set("service.miss_overhead_us", missUs-execUs-ps.m["service.disk_store_us"])

	// A warm table: every run of the plan a hit, then the render.
	table := tableBody(c.hotOptions())
	if err := post("/v1/experiment", table); err != nil { // computes the plan
		return err
	}
	if us, err = each(ps.n(20), func(int) error { return post("/v1/experiment", table) }); err != nil {
		return err
	}
	ps.set("service.table_render_ms", us/1e3)
	return nil
}
