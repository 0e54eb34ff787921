package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		us   float64
		want Time
	}{
		{1.0, 1000},
		{2.9, 2900},
		{0.0, 0},
		{5.8, 5800},
		{1.8, 1800},
		{-1.0, -1000},
	}
	for _, c := range cases {
		if got := FromMicros(c.us); got != c.want {
			t.Errorf("FromMicros(%v) = %d, want %d", c.us, got, c.want)
		}
	}
	if got := Time(2900).Micros(); got != 2.9 {
		t.Errorf("Micros() = %v, want 2.9", got)
	}
	if got := Time(3 * Second).Seconds(); got != 3.0 {
		t.Errorf("Seconds() = %v, want 3", got)
	}
	if got := Time(1500 * Microsecond).Millis(); got != 1.5 {
		t.Errorf("Millis() = %v, want 1.5", got)
	}
}

func TestTimeString(t *testing.T) {
	if s := (2 * Second).String(); !strings.Contains(s, "s") {
		t.Errorf("String() = %q", s)
	}
	if s := (5 * Microsecond).String(); !strings.Contains(s, "µs") {
		t.Errorf("String() = %q", s)
	}
	if s := (5 * Millisecond).String(); !strings.Contains(s, "ms") {
		t.Errorf("String() = %q", s)
	}
}

func TestSingleProcAdvance(t *testing.T) {
	e := New(Config{Procs: 1})
	err := e.Run(func(p *Proc) {
		p.Advance(10 * Microsecond)
		p.Advance(5 * Microsecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Proc(0).Clock(); got != 15*Microsecond {
		t.Errorf("clock = %v, want 15µs", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	e := New(Config{Procs: 1})
	err := e.Run(func(p *Proc) { p.Advance(-1) })
	if err == nil {
		t.Fatal("expected error from negative Advance")
	}
}

func TestNewBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Procs=0")
		}
	}()
	New(Config{Procs: 0})
}

func TestMinClockScheduling(t *testing.T) {
	// Two processors append to a shared log at checkpoints; the log must be
	// ordered by virtual time regardless of goroutine interleaving.
	var log []string
	e := New(Config{Procs: 2})
	err := e.Run(func(p *Proc) {
		step := Time(10)
		if p.ID() == 1 {
			step = 7
		}
		for i := 0; i < 5; i++ {
			p.Advance(step)
			p.Checkpoint()
			log = append(log, fmt.Sprintf("p%d@%d", p.ID(), p.Clock()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Extract times; they must be globally non-decreasing.
	var prev Time = -1
	for _, entry := range log {
		var id int
		var at Time
		fmt.Sscanf(entry, "p%d@%d", &id, &at)
		if at < prev {
			t.Fatalf("log out of order: %v", log)
		}
		prev = at
	}
}

func TestEventsExecuteInOrder(t *testing.T) {
	var fired []Time
	e := New(Config{Procs: 1})
	err := e.Run(func(p *Proc) {
		e.ScheduleCall(30, func(any, Time) { fired = append(fired, 30) }, nil)
		e.ScheduleCall(10, func(any, Time) { fired = append(fired, 10) }, nil)
		e.ScheduleCall(20, func(any, Time) { fired = append(fired, 20) }, nil)
		p.Advance(100)
		p.Checkpoint()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || fired[0] != 10 || fired[1] != 20 || fired[2] != 30 {
		t.Errorf("events fired %v, want [10 20 30]", fired)
	}
}

func TestEventFIFOAtSameInstant(t *testing.T) {
	var fired []int
	e := New(Config{Procs: 1})
	err := e.Run(func(p *Proc) {
		for i := 0; i < 5; i++ {
			i := i
			e.ScheduleCall(10, func(any, Time) { fired = append(fired, i) }, nil)
		}
		p.Advance(10)
		p.Checkpoint()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(fired) || len(fired) != 5 {
		t.Errorf("same-instant events fired %v, want FIFO [0..4]", fired)
	}
}

func TestParkAndWake(t *testing.T) {
	// Proc 0 blocks; proc 1 schedules an event that wakes it at t=50.
	var wokeAt Time
	var released int64
	e := New(Config{Procs: 2})
	err := e.Run(func(p *Proc) {
		if p.ID() == 1 {
			target := e.Proc(0)
			e.ScheduleCall(50, func(any, Time) { released = 1; target.WakeAt(50) }, nil)
			p.Advance(100)
			p.Checkpoint()
			return
		}
		p.Await(&ctrWait{ctr: &released, target: 1})
		wokeAt = p.Clock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if wokeAt != 50 {
		t.Errorf("woke at %v, want 50", wokeAt)
	}
}

func TestWakeAtDoesNotRewindClock(t *testing.T) {
	var released int64
	e := New(Config{Procs: 2})
	err := e.Run(func(p *Proc) {
		if p.ID() == 1 {
			target := e.Proc(0)
			e.ScheduleCall(10, func(any, Time) { released = 1; target.WakeAt(10) }, nil)
			p.Advance(100)
			p.Checkpoint()
			return
		}
		p.Advance(40) // clock ahead of the wake time
		p.Await(&ctrWait{ctr: &released, target: 1})
		if p.Clock() != 40 {
			t.Errorf("clock rewound to %v", p.Clock())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSleepUntil(t *testing.T) {
	e := New(Config{Procs: 1})
	err := e.Run(func(p *Proc) {
		p.SleepUntil(77)
		if p.Clock() != 77 {
			t.Errorf("clock after sleep = %v, want 77", p.Clock())
		}
		p.SleepUntil(10) // in the past: no-op
		if p.Clock() != 77 {
			t.Errorf("clock after past sleep = %v, want 77", p.Clock())
		}
		p.Sleep(3)
		if p.Clock() != 80 {
			t.Errorf("clock after Sleep(3) = %v, want 80", p.Clock())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := New(Config{Procs: 2})
	err := e.Run(func(p *Proc) { p.Await(forever) })
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
	if !strings.Contains(err.Error(), forever.WaitReason()) {
		t.Errorf("deadlock error missing wait reason: %v", err)
	}
}

func TestPanicPropagation(t *testing.T) {
	e := New(Config{Procs: 4})
	err := e.Run(func(p *Proc) {
		p.Advance(Time(p.ID()) * 10)
		p.Checkpoint()
		if p.ID() == 2 {
			panic("boom")
		}
		p.Await(forever)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected panic error, got %v", err)
	}
	if !strings.Contains(err.Error(), "proc 2") {
		t.Errorf("error should identify proc 2: %v", err)
	}
}

func TestFirstFailureWins(t *testing.T) {
	// Two processors fail concurrently: proc 0 panics first (it is the
	// first to reach its panic site in virtual-time order), and proc 1's
	// body defers a second panic into the abort unwind. The recorded
	// failure must be the root cause, not whichever unwind finished last.
	e := New(Config{Procs: 2})
	err := e.Run(func(p *Proc) {
		if p.ID() == 1 {
			defer func() {
				// Runs while unwinding via the abort path; must not
				// overwrite the root-cause failure.
				panic("secondary failure during unwind")
			}()
			p.Await(forever)
		}
		p.Advance(5)
		p.Checkpoint()
		panic("root cause")
	})
	if err == nil || !strings.Contains(err.Error(), "root cause") {
		t.Fatalf("expected root-cause failure to win, got %v", err)
	}
	if strings.Contains(err.Error(), "secondary failure") {
		t.Errorf("secondary unwind panic masked the root cause: %v", err)
	}
}

func TestTimeLimitFirstFailureWins(t *testing.T) {
	// A time-limit abort must also respect first-wins when a body panics
	// during the resulting unwind.
	e := New(Config{Procs: 2, TimeLimit: 100})
	err := e.Run(func(p *Proc) {
		if p.ID() == 1 {
			defer func() { panic("secondary") }()
			p.Await(forever)
		}
		p.Advance(1000)
		p.Checkpoint()
	})
	if !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("expected ErrTimeLimit, got %v", err)
	}
}

func TestScheduleAndSleepZeroAlloc(t *testing.T) {
	// The pooled event path: once the event heap has reached its
	// high-water mark, arming a sleep (ScheduleCall + park + fast-path
	// wake) must not allocate. Measured from inside the body, where the
	// steady state lives. MemStats.Mallocs is process-wide and also
	// counts the runtime's own allocations, which land in one window at
	// random; a steady-state allocation lands in every window, so the
	// gate is the minimum over several.
	e := New(Config{Procs: 1})
	const windows, measured = 5, 1000
	got := ^uint64(0)
	err := e.Run(func(p *Proc) {
		for i := 0; i < 100; i++ { // warm the event heap
			p.Sleep(10)
		}
		runtime.GC()
		var before, after runtime.MemStats
		for w := 0; w < windows; w++ {
			runtime.ReadMemStats(&before)
			for i := 0; i < measured; i++ {
				p.Sleep(10)
			}
			runtime.ReadMemStats(&after)
			got = min(got, after.Mallocs-before.Mallocs)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("steady-state Sleep path allocated at least %d times in each of %d windows of %d iterations, want 0", got, windows, measured)
	}
}

func TestRunEachDistinctBodies(t *testing.T) {
	e := New(Config{Procs: 3})
	got := make([]int, 3)
	bodies := make([]func(*Proc), 3)
	for i := range bodies {
		i := i
		bodies[i] = func(p *Proc) { got[p.ID()] = i * 100 }
	}
	if err := e.RunEach(bodies); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*100 {
			t.Errorf("proc %d ran wrong body: %d", i, v)
		}
	}
}

func TestRunEachLengthMismatch(t *testing.T) {
	e := New(Config{Procs: 2})
	if err := e.RunEach([]func(*Proc){func(*Proc) {}}); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Time, int64, int64) {
		e := New(Config{Procs: 8, Seed: 42})
		err := e.Run(func(p *Proc) {
			rng := p.Rand()
			for i := 0; i < 200; i++ {
				p.Advance(Time(rng.Intn(20) + 1))
				if rng.Intn(3) == 0 {
					target := e.Proc(rng.Intn(8))
					at := p.Clock() + Time(rng.Intn(50))
					e.ScheduleCall(at, func(any, Time) { target.WakeAt(at) }, nil)
				}
				p.Checkpoint()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return e.MaxClock(), e.Switches(), e.EventsRun()
	}
	c1, s1, ev1 := run()
	c2, s2, ev2 := run()
	if c1 != c2 || s1 != s2 || ev1 != ev2 {
		t.Errorf("nondeterministic: (%v,%d,%d) vs (%v,%d,%d)", c1, s1, ev1, c2, s2, ev2)
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	final := func(seed int64) Time {
		e := New(Config{Procs: 4, Seed: seed})
		if err := e.Run(func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Advance(Time(p.Rand().Intn(100) + 1))
				p.Checkpoint()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return e.MaxClock()
	}
	if final(1) == final(2) {
		t.Error("different seeds should give different random schedules")
	}
}

func TestSchedulerCounters(t *testing.T) {
	run := func(procs int) *Engine {
		e := New(Config{Procs: procs})
		if err := e.Run(func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Advance(10)
				p.Checkpoint()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return e
	}
	// Two processors in lock-step take turns on two stacks.
	if e := run(2); e.Switches() == 0 {
		t.Error("two checkpointing procs made no switches")
	}
	// A lone processor never leaves its stack.
	if e := run(1); e.Switches() != 0 {
		t.Errorf("solo switches = %d, want 0", e.Switches())
	}
}

func TestPendingWakeConsumedByPark(t *testing.T) {
	// Two wakeups arrive while the target is still ready; a wait that
	// would otherwise block must consume both, in order, spinning the
	// clock forward to each.
	var wakes []Time
	e := New(Config{Procs: 2})
	err := e.Run(func(p *Proc) {
		if p.ID() == 0 {
			target := e.Proc(1)
			e.ScheduleCall(20, func(any, Time) { target.WakeAt(20) }, nil)
			e.ScheduleCall(30, func(any, Time) { target.WakeAt(30) }, nil)
			p.Advance(100)
			p.Checkpoint()
			return
		}
		p.Advance(1)
		p.Checkpoint() // proc 0 runs ahead, both events fire while we are ready
		p.SetClockHook(func(_ ClockKind, _, to Time) { wakes = append(wakes, to) })
		p.sleep.until = 30 // a sleep with no alarm of its own
		p.Await(&p.sleep)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wakes) != 2 || wakes[0] != 20 || wakes[1] != 30 {
		t.Errorf("wakes = %v, want [20 30]", wakes)
	}
}

// wakeCountWait is a sleep with no alarm of its own that counts how often
// the scheduler asks whether it is over.
type wakeCountWait struct {
	sleepWait
	asked int
}

func (w *wakeCountWait) Ready(p *Proc) bool { w.asked++; return w.sleepWait.Ready(p) }

// TestStaleWakesCostNothing: a wake for an instant its processor has
// already reached is never queued, so neither the list nor the wait that
// reads it grows with the number of deliveries — only the wakes still
// ahead are kept (once each) and taken in order.
func TestStaleWakesCostNothing(t *testing.T) {
	const n = 10_000
	future := []Time{n + 10, n + 20, n + 30}
	var (
		recorded int
		wakes    []Time
		wait     = wakeCountWait{sleepWait: sleepWait{until: future[len(future)-1]}}
	)
	e := New(Config{Procs: 2})
	err := e.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Advance(1)
			p.Checkpoint() // the target runs ahead to n+1 and is ready there
			target := e.Proc(1)
			for i := 1; i <= n; i++ {
				at := Time(i)
				e.ScheduleCall(at, func(any, Time) { target.WakeAt(at) }, nil)
			}
			for _, at := range append(future, future...) {
				e.ScheduleCall(at, func(any, Time) { target.WakeAt(at) }, nil)
			}
			e.ScheduleCall(wait.until, func(any, Time) { recorded = len(target.pendingWakes) }, nil)
			p.Advance(2 * n)
			p.Checkpoint() // every event fires, then the target has the CPU
			return
		}
		p.Advance(n + 1)
		p.Checkpoint()
		p.SetClockHook(func(_ ClockKind, _, to Time) { wakes = append(wakes, to) })
		p.Await(&wait)
	})
	if err != nil {
		t.Fatal(err)
	}
	if recorded != len(future) {
		t.Errorf("%d wakes recorded after %d stale and %d future (each sent twice), want %d", recorded, n, len(future), len(future))
	}
	// Await asks once, the scheduler once on taking the wait up and once
	// after each jump.
	if max := 2 + len(future); wait.asked > max {
		t.Errorf("Ready evaluated %d times for %d wakes ahead of the clock, want at most %d", wait.asked, len(future), max)
	}
	if fmt.Sprint(wakes) != fmt.Sprint(future) {
		t.Errorf("clock moved to %v, want %v", wakes, future)
	}
}

// TestDeadWakesAreDropped: a processor that never waits long enough to
// take a wake (it only yields) still gets wakes recorded, each a little
// ahead of its clock, and passes every one. The list must stay a few
// entries long rather than keep every wake the clock has passed.
func TestDeadWakesAreDropped(t *testing.T) {
	const n = 10_000
	longest := 0
	e := New(Config{Procs: 1})
	err := e.Run(func(p *Proc) {
		for i := 1; i <= n; i++ {
			at := Time(10 * i)
			e.ScheduleCall(at, func(any, Time) { p.WakeAt(at + 25) }, nil)
		}
		for i := 0; i < n; i++ {
			p.Advance(10)
			p.Checkpoint()
			longest = max(longest, len(p.pendingWakes))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three wakes are ahead of the clock at any time; the dead prefix is
	// dropped once it is half the list.
	if longest > 8 {
		t.Errorf("pending-wake list reached %d entries over %d wakes, 3 of them ahead of the clock at a time", longest, n)
	}
}

// Property: for any batch of event times, the engine executes them in
// non-decreasing time order with FIFO tie-breaks.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 200 {
			raw = raw[:200]
		}
		var fired []Time
		e := New(Config{Procs: 1})
		err := e.Run(func(p *Proc) {
			for _, r := range raw {
				at := Time(r)
				e.ScheduleCall(at, func(any, Time) { fired = append(fired, at) }, nil)
			}
			p.Advance(Time(70000))
			p.Checkpoint()
		})
		if err != nil {
			return false
		}
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the global log of checkpoint timestamps across P processors is
// non-decreasing for arbitrary per-proc step sequences.
func TestCausalOrderProperty(t *testing.T) {
	f := func(steps [][]uint8, procsRaw uint8) bool {
		procs := int(procsRaw)%6 + 2
		if len(steps) < procs {
			return true
		}
		var stamps []Time
		e := New(Config{Procs: procs})
		err := e.Run(func(p *Proc) {
			mine := steps[p.ID()]
			if len(mine) > 50 {
				mine = mine[:50]
			}
			for _, s := range mine {
				p.Advance(Time(s) + 1)
				p.Checkpoint()
				stamps = append(stamps, p.Clock())
			}
		})
		if err != nil {
			return false
		}
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < stamps[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBenchmarkableManyProcs(t *testing.T) {
	e := New(Config{Procs: 32})
	err := e.Run(func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Advance(Time(1 + (p.ID()+i)%13))
			p.Checkpoint()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.MaxClock() == 0 {
		t.Error("clock did not advance")
	}
}

func TestTimeLimit(t *testing.T) {
	e := New(Config{Procs: 2, TimeLimit: 100})
	err := e.Run(func(p *Proc) {
		for {
			p.Advance(10)
			p.Checkpoint()
		}
	})
	if err == nil || !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("expected ErrTimeLimit, got %v", err)
	}
}

// TestAbortLeaksNothing runs every way a run of blocking bodies can abort
// with three bystanders suspended in waits. Run must return the root
// cause — not what a bystander raises while it unwinds — and every body's
// coroutine must be gone when it does.
func TestAbortLeaksNothing(t *testing.T) {
	rootCause := errors.New("root cause")
	cases := []struct {
		name      string
		cfg       Config
		culprit   func(e *Engine, p *Proc) // proc 0
		bystander func(p *Proc)            // deferred by procs 1..3: runs as they unwind
		want      func(error) bool
	}{
		{
			name:    "Fail from a body",
			culprit: func(e *Engine, p *Proc) { p.Advance(5); p.Checkpoint(); e.Fail(rootCause) },
			want:    func(err error) bool { return errors.Is(err, rootCause) },
		},
		{
			name: "Fail from an event",
			culprit: func(e *Engine, p *Proc) {
				e.ScheduleCall(10, func(any, Time) { e.Fail(rootCause) }, nil)
				p.Await(forever)
			},
			want: func(err error) bool { return errors.Is(err, rootCause) },
		},
		{
			name:    "deadlock",
			culprit: func(_ *Engine, p *Proc) { p.Await(forever) },
			want:    func(err error) bool { return err != nil && strings.Contains(err.Error(), "deadlock") },
		},
		{
			name: "time limit",
			cfg:  Config{TimeLimit: 100},
			culprit: func(_ *Engine, p *Proc) {
				for {
					p.Advance(10)
					p.Checkpoint()
				}
			},
			want: func(err error) bool { return errors.Is(err, ErrTimeLimit) },
		},
		{
			name:    "body panic",
			culprit: func(_ *Engine, p *Proc) { p.Advance(5); p.Checkpoint(); panic("root cause") },
			want:    func(err error) bool { return err != nil && strings.Contains(err.Error(), "proc 0 panicked") },
		},
		{
			name:      "bystanders panic while unwinding",
			culprit:   func(_ *Engine, p *Proc) { p.Advance(5); p.Checkpoint(); panic("root cause") },
			bystander: func(*Proc) { panic("secondary") },
			want: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "root cause") && !strings.Contains(err.Error(), "secondary")
			},
		},
		{
			name:      "bystanders wait while unwinding",
			culprit:   func(e *Engine, p *Proc) { p.Advance(5); p.Checkpoint(); e.Fail(rootCause) },
			bystander: func(p *Proc) { p.Checkpoint(); p.Await(forever) },
			want:      func(err error) bool { return errors.Is(err, rootCause) },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			c.cfg.Procs = 4
			e := New(c.cfg)
			err := e.Run(func(p *Proc) {
				if p.ID() == 0 {
					c.culprit(e, p)
					return
				}
				if c.bystander != nil {
					defer c.bystander(p)
				}
				p.Await(forever)
			})
			if !c.want(err) {
				t.Errorf("Run returned %v", err)
			}
			// More, not different: the previous subtest's own goroutine may
			// still be on its way out when before is read.
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines before the run, %d after", before, after)
			}
		})
	}
}
