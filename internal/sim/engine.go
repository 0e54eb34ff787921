package sim

import (
	"errors"
	"fmt"
	"strings"
)

// Config controls engine construction.
type Config struct {
	// Procs is the number of logical processors (the LogGP "P"). Must be >= 1.
	Procs int
	// Seed feeds each processor's deterministic PRNG. Two runs with equal
	// seeds and equal programs produce identical virtual timelines.
	Seed int64
	// TimeLimit, when nonzero, aborts the run with ErrTimeLimit once any
	// processor's clock passes it. This bounds livelocking programs (the
	// paper's Barnes does not complete at high overhead).
	TimeLimit Time
}

// Engine is a deterministic discrete-event simulator for SPMD programs.
// Create one with New, then call Run, RunEach or RunResumables exactly
// once. Whatever form the processor bodies take, one loop (drive)
// schedules them, on the caller's goroutine.
type Engine struct {
	procs     []*Proc
	ready     procHeap
	events    eventHeap
	timeLimit Time

	eventSeq  int64
	liveCount int
	// failure is the first failure of the run (Fail, a time limit, a
	// deadlock, a panicking body); once set the scheduler stops.
	failure error

	// seed feeds the lazily built per-processor PRNGs (see Proc.Rand).
	seed int64
	// started flips when a run begins; engines are single-use.
	started bool
	// onStack is the blocking body that ran most recently (nil before the
	// first, and always in a run of state machines, which have no stack).
	onStack *Proc

	switches  int64 // see Switches
	eventsRun int64 // events executed
}

// abortPanic unwinds whatever stack a failure was detected on, up to the
// recover at that stack's root: drive's own, or a blocking body's.
type abortPanic struct{}

// ErrTimeLimit is returned by Run when Config.TimeLimit was exceeded.
var ErrTimeLimit = fmt.Errorf("sim: virtual time limit exceeded")

// New builds an engine with cfg.Procs processors, all at virtual time zero.
func New(cfg Config) *Engine {
	if cfg.Procs < 1 {
		panic(fmt.Sprintf("sim: Config.Procs must be >= 1, got %d", cfg.Procs))
	}
	e := &Engine{timeLimit: cfg.TimeLimit, seed: cfg.Seed}
	e.procs = make([]*Proc, cfg.Procs)
	for i := range e.procs {
		e.procs[i] = newProc(e, i)
	}
	e.ready.init(e.procs)
	e.events.init()
	return e
}

// P returns the number of processors.
func (e *Engine) P() int { return len(e.procs) }

// Proc returns processor i. It is mainly useful for inspecting clocks after
// a run; during a run, program code receives its own *Proc.
func (e *Engine) Proc(i int) *Proc { return e.procs[i] }

// Switches reports how many times control passed from one blocking
// body's stack to a different body's. Wait iterations the scheduler runs
// on a parked body's behalf are not switches, and a run of state
// machines (RunResumables) makes none.
func (e *Engine) Switches() int64 { return e.switches }

// EventsRun reports how many discrete events the engine executed.
func (e *Engine) EventsRun() int64 { return e.eventsRun }

// MaxClock returns the largest processor clock, i.e. the parallel makespan.
func (e *Engine) MaxClock() Time {
	var mx Time
	for _, p := range e.procs {
		if p.clock > mx {
			mx = p.clock
		}
	}
	return mx
}

// Fail aborts the simulation with err; the run returns it. It may be
// called from an event or from a processor body — the layer that detects
// an unrecoverable protocol condition (for example a message exceeding
// its retransmission cap) uses it to surface a typed error instead of
// letting the run hang. Fail does not return: it unwinds the calling
// stack. If a failure is already recorded, the first one wins.
func (e *Engine) Fail(err error) {
	e.recordFailure(err)
	panic(abortPanic{})
}

// recordFailure stores err as the simulation's failure unless one is
// already recorded: the first failure wins, later ones (secondary panics
// raised while suspended bodies unwind) must not mask the root cause.
func (e *Engine) recordFailure(err error) {
	if e.failure == nil {
		e.failure = err
	}
}

// EventFn is the one form of a scheduled event: fn(arg, at) runs at
// virtual time `at` with the arg it was scheduled with. A top-level
// function with a pointer-shaped arg makes the schedule path
// allocation-free, where a capturing closure would heap-allocate per
// event.
type EventFn func(arg any, at Time)

// ScheduleCall registers fn(arg, t) to run at virtual time t. Events run
// in (t, FIFO) order, on whichever stack reaches them first — the
// scheduler's or a blocking body's; they must not call Await, Checkpoint
// or Sleep. Events typically deposit a message and call Proc.WakeAt.
// Event records live by value in the event queue's pool, which reuses
// popped nodes, so once the pool has grown to the workload's high-water
// mark the call allocates nothing: every event of a run — deliveries,
// credit returns, the reliability layer's arrivals, timeouts and acks,
// sleeps — is scheduled here.
//
//repro:hotpath
func (e *Engine) ScheduleCall(t Time, fn EventFn, arg any) {
	e.eventSeq++
	e.events.push(event{at: t, seq: e.eventSeq, fn: fn, arg: arg})
}

// Run executes body once per processor (SPMD style) and returns when every
// processor's body has returned. It returns an error if the simulation
// deadlocks (every processor parked with no pending events) or if any
// processor panics.
func (e *Engine) Run(body func(*Proc)) error {
	bodies := make([]func(*Proc), len(e.procs))
	for i := range bodies {
		bodies[i] = body
	}
	return e.RunEach(bodies)
}

// drive is the scheduler: the one loop that pops the ready heap, for
// state machines and blocking bodies alike. It ends when every body is
// done, when nothing can run any more (deadlock), or at the first
// failure.
func (e *Engine) drive() {
	// p holds the CPU and is the culprit if its turn panics; nil while
	// next() runs, whose events belong to no processor.
	var p *Proc
	defer func() {
		switch r := recover().(type) {
		case nil, abortPanic:
		default:
			if p != nil {
				e.recordFailure(fmt.Errorf("sim: proc %d panicked at %v: %v", p.id, p.clock, r))
			} else {
				e.recordFailure(fmt.Errorf("sim: event panicked: %v", r))
			}
		}
	}()
	for e.failure == nil {
		if p == nil {
			if p = e.next(); p == nil {
				if e.liveCount > 0 {
					e.recordFailure(e.deadlockError())
				}
				return
			}
		}
		p = e.turn(p)
	}
}

// next pops the runnable processor with the smallest clock, executing any
// events due at or before that clock first (events may make earlier
// processors runnable). Returns nil when nothing can run.
//
//repro:hotpath
func (e *Engine) next() *Proc {
	q := e.ready.peek()
	for e.events.len() > 0 && (q == nil || e.events.peek().at <= q.clock) {
		e.runEvent()
		q = e.ready.peek()
	}
	if q == nil {
		return nil // and the event queue is empty
	}
	return e.ready.pop()
}

// turn gives the CPU to p, the minimum-(clock, id) runnable, and lets it
// keep it for as long as it stays the minimum. While p is in a wait, each
// pass is one wait iteration — test the condition, else service one due
// unit of work, else spin forward to known future work or to a recorded
// wakeup, else block; once the wait is over, p's body runs until it
// names the next one. This is the only place that sequence exists:
// blocking bodies do not loop over their waits, they hand them here
// (Proc.Await).
//
// turn returns who runs next when it already knows: a p that stopped
// being the minimum changes places with the ready heap's root
// (procHeap.handOff), and the old root is what next() would have popped —
// holds has just run every event due by p's clock, which is not before
// the root's.
// It returns nil when p finished or blocked, and next() must look.
//
//repro:hotpath
func (e *Engine) turn(p *Proc) *Proc {
	p.state = stateRunning
	for {
		switch w := p.wait; {
		case w == nil:
			next, done := p.body.Resume(p)
			if done {
				p.state = stateDone
				p.body = nil
				e.liveCount--
				return nil
			}
			if next == nil {
				panic(fmt.Sprintf("sim: proc %d Resume returned neither a wait nor done", p.id))
			}
			p.wait = next
		case w.Ready(p):
			p.wait = nil
		case w.PollOne(p):
			// Serviced one unit of work; its cost moved the clock.
		default:
			t, ok := w.NextWork(p)
			if !ok {
				// A wakeup that arrived while p was not blocked stands in
				// for blocking, if it still lies ahead.
				if t, ok = p.takeWake(); !ok {
					p.state = stateBlocked
					return nil
				}
			}
			p.AdvanceTo(t)
		}
		if !e.holds(p) {
			p.state = stateReady
			return e.ready.handOff(p)
		}
	}
}

// holds is called with p running, after it took up a wait or moved its
// clock. It runs every event due by p's clock and reports whether p is
// still the minimum-(clock, id) runnable, i.e. whether next() would pick
// it again. It is the scheduler's invariant in one place: a processor
// gives up the CPU only after every event due by its clock has run —
// including events, such as window-credit returns, whose timestamps lie
// beyond other processors' clocks; slower processors' waits legitimately
// observe those effects — and only the ready heap's order decides who
// runs next. A processor found past the time limit here fails the run.
//
//repro:hotpath
func (e *Engine) holds(p *Proc) bool {
	if e.timeLimit > 0 && p.clock > e.timeLimit {
		//lint:allow hotpathalloc the run is over: formatting the failure is off the steady path
		e.Fail(fmt.Errorf("sim: proc %d at %v: %w", p.id, p.clock, ErrTimeLimit))
	}
	e.drainEvents(p.clock)
	q := e.ready.peek()
	if q == nil {
		return true
	}
	self := p.entry()
	return self.before(q)
}

// deadlockShown is how many blocked processors a deadlock error lists; the
// rest are counted, so the message stays small at any P.
const deadlockShown = 8

func (e *Engine) deadlockError() error {
	var b strings.Builder
	b.WriteString("sim: deadlock — all processors parked and no events pending\n")
	blocked := 0
	for _, p := range e.procs {
		if p.state != stateBlocked {
			continue
		}
		if blocked < deadlockShown {
			fmt.Fprintf(&b, "  proc %d blocked at %v: %s\n", p.id, p.clock, waitReason(p.wait))
		}
		blocked++
	}
	if more := blocked - deadlockShown; more > 0 {
		fmt.Fprintf(&b, "  … and %d more blocked\n", more)
	}
	return errors.New(b.String())
}

// drainEvents runs every event due at or before limit. Events that wake
// the processor whose clock set the limit find it running or ready, so
// their wakes accumulate as pending.
//
//repro:hotpath
func (e *Engine) drainEvents(limit Time) {
	for e.events.len() > 0 && e.events.peek().at <= limit {
		e.runEvent()
	}
}

// runEvent pops and executes the earliest event. It is the one place an
// event runs, for next and drainEvents alike.
//
//repro:hotpath
func (e *Engine) runEvent() {
	ev := e.events.pop()
	e.eventsRun++
	ev.fn(ev.arg, ev.at)
}
