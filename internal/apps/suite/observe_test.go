package suite

import (
	"fmt"
	"testing"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/logp"
	"repro/internal/sim"
)

// occurrences counts what one observer is told, per processor: every
// charge span and unnamed clock advance (which together must tile the
// timeline once), the latest instant any event reported, and the open
// wait, so a second report of one occurrence, or a missing one, shows.
type occurrences struct {
	am.NopHooks
	sent, handled int64
	waits         int64
	covered       []sim.Time // charge spans plus ClockAdvanced spans
	last          []sim.Time // latest instant reported
	open          []bool     // inside a WaitBegin
	kind          []am.WaitKind
	errs          []string
}

func newOccurrences(procs int) *occurrences {
	return &occurrences{
		covered: make([]sim.Time, procs),
		last:    make([]sim.Time, procs),
		open:    make([]bool, procs),
		kind:    make([]am.WaitKind, procs),
	}
}

func (o *occurrences) span(proc int, from, to sim.Time) {
	o.covered[proc] += to - from
	o.at(proc, to)
}

func (o *occurrences) at(proc int, t sim.Time) { o.last[proc] = max(o.last[proc], t) }

func (o *occurrences) MessageSent(e am.SendEvent) {
	o.sent++
	o.span(e.Src, e.OFrom, e.OTo)
	o.at(e.Src, e.At)
}

func (o *occurrences) MessageHandled(src, dst int, class am.Class, bulk bool, at sim.Time) {
	o.handled++
	o.at(dst, at)
}

func (o *occurrences) RecvOverhead(proc int, from, to sim.Time)   { o.span(proc, from, to) }
func (o *occurrences) ComputeCharged(proc int, from, to sim.Time) { o.span(proc, from, to) }
func (o *occurrences) ClockAdvanced(proc int, _ sim.ClockKind, from, to sim.Time) {
	o.span(proc, from, to)
}

func (o *occurrences) WaitBegin(proc int, kind am.WaitKind, at sim.Time) {
	if o.open[proc] && len(o.errs) < 5 {
		o.errs = append(o.errs, fmt.Sprintf("proc %d: WaitBegin(%v) at %v inside an open wait", proc, kind, at))
	}
	o.waits++
	o.open[proc], o.kind[proc] = true, kind
	o.at(proc, at)
}

func (o *occurrences) WaitEnd(proc int, kind am.WaitKind, at sim.Time) {
	if (!o.open[proc] || o.kind[proc] != kind) && len(o.errs) < 5 {
		o.errs = append(o.errs, fmt.Sprintf("proc %d: WaitEnd(%v) at %v does not close the open wait", proc, kind, at))
	}
	o.open[proc] = false
	o.at(proc, at)
}

func (o *occurrences) SyncExit(proc int, _ am.SyncRegion, at sim.Time) { o.at(proc, at) }

// shortStream is the P = 2 short-message stream of the zero-allocation
// gate: back-to-back requests that stall on the window, then a drain.
func shortStream(h am.Hooks) (*am.Stats, sim.Time, error) {
	const n = 64
	eng := sim.New(sim.Config{Procs: 2})
	m := am.MustMachine(eng, logp.NOW())
	m.SetHooks(h)
	seen := 0
	handler := func(*am.Endpoint, *am.Token, am.Args) { seen++ }
	err := eng.RunEach([]func(*sim.Proc){
		func(*sim.Proc) {
			ep := m.Endpoint(0)
			for i := 0; i < n; i++ {
				ep.Request(1, am.ClassWrite, handler, am.Args{})
			}
			ep.WaitUntil(func() bool { return seen == n }, "drain")
		},
		func(*sim.Proc) { m.Endpoint(1).WaitUntil(func() bool { return seen == n }, "sink") },
	})
	return m.Stats(), eng.MaxClock(), err
}

// appRun runs a suite app at tinyCfg(procs) with set applied.
func appRun(name string, procs int, set func(*apps.Config)) func(am.Hooks) (*am.Stats, sim.Time, error) {
	return func(h am.Hooks) (*am.Stats, sim.Time, error) {
		a, err := ByName(name)
		if err != nil {
			return nil, 0, err
		}
		cfg := tinyCfg(procs)
		cfg.Hooks = h
		if set != nil {
			set(&cfg)
		}
		res, err := a.Run(cfg)
		return res.Stats, res.Elapsed, err
	}
}

// TestObserversSeeEachOccurrenceOnce holds the observer contract on a
// window-stalled stream, a Task, a blocking body with disk sleeps and a
// lossy wire under reliability: one MessageSent per host send, one
// MessageHandled per handler run, wait reports that open and close in
// turn under one kind, and charge spans plus ClockAdvanced spans that
// add up to each processor's final clock exactly — the instant of its
// last event, the end of the wait its body finishes with.
func TestObserversSeeEachOccurrenceOnce(t *testing.T) {
	lossy := &fault.Plan{
		Drops: []fault.DropRule{{Match: fault.Any(), Prob: 0.02}},
		Dups:  []fault.DupRule{{Match: fault.Any(), Prob: 0.02}},
	}
	for _, tc := range []struct {
		name     string
		procs    int
		lossless bool
		run      func(am.Hooks) (*am.Stats, sim.Time, error)
	}{
		{"short stream P=2", 2, true, shortStream},
		{"radix P=5 task", 5, true, appRun("radix", 5, nil)},
		{"nowsort P=5 blocking", 5, true, appRun("nowsort", 5, nil)},
		{"radix P=5 lossy reliable", 5, false, appRun("radix", 5, func(c *apps.Config) {
			c.FaultPlan, c.Reliability = lossy, am.Reliability{Enabled: true}
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := newOccurrences(tc.procs)
			stats, elapsed, err := tc.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if want := stats.TotalSent(); o.sent != want {
				t.Errorf("MessageSent %d times for %d host sends", o.sent, want)
			}
			if want := stats.TotalSent(); tc.lossless && o.handled != want {
				t.Errorf("MessageHandled %d times for %d messages on a lossless wire", o.handled, want)
			}
			if o.waits == 0 {
				t.Error("no wait reported")
			}
			for _, e := range o.errs {
				t.Error(e)
			}
			var latest sim.Time
			for p := 0; p < tc.procs; p++ {
				if o.open[p] {
					t.Errorf("proc %d finished inside a %v wait", p, o.kind[p])
				}
				if o.covered[p] != o.last[p] {
					t.Errorf("proc %d: charge and clock spans add up to %v, its final clock is %v", p, o.covered[p], o.last[p])
				}
				latest = max(latest, o.last[p])
			}
			if latest != elapsed {
				t.Errorf("latest reported instant %v, makespan %v", latest, elapsed)
			}
		})
	}
}
