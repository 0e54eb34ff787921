package sim

import "fmt"

// Resumable is a processor body expressed as an explicit state machine:
// the engine calls Resume repeatedly on the owning processor's behalf.
// Each call runs the body forward — charging time, sending messages,
// mutating its own state — until the body either finishes (done=true) or
// must wait (wait non-nil). The body never owns a goroutine or a stack
// across calls: everything it needs between calls lives in its own
// struct, which is what lets a single OS thread drive a million
// simulated processors.
//
// Contract:
//
//   - Resume runs on the driver's goroutine with the processor in
//     stateRunning. It must not call Park, ParkPollable, Checkpoint, or
//     Poll (those are coroutine-shell primitives that yield a stack the
//     resumable body does not have). Poll points are expressed with
//     Proc.RunDueEvents plus the messaging layer's continuation
//     primitives instead.
//   - The returned wait is driven by the engine exactly as a
//     ParkPollable wait would be (see Engine.stepWait): the next Resume
//     call happens only once the wait's Ready condition has been
//     established, with every event due by the processor's clock already
//     executed. Bodies may therefore treat re-entry as "the wait
//     completed", just as coroutine code treats a true return from
//     ParkPollable.
//   - Returning (nil, false) is a contract violation and panics: a body
//     that cannot finish must name what it is waiting for, or the
//     scheduler could neither run nor retire it.
type Resumable interface {
	Resume(p *Proc) (wait PollableWait, done bool)
}

// WaitReasoner optionally labels a PollableWait for deadlock diagnostics:
// a resumable processor parked on a wait that implements it reports the
// label as its block reason (coroutine parks pass an explicit string to
// Park/ParkPollable instead).
type WaitReasoner interface {
	WaitReason() string
}

// RunResumables executes one Resumable body per processor and returns
// when all have finished, like RunEach — but entirely on the caller's
// goroutine. No processor goroutines are spawned and no channels are
// touched: the driver loop picks the minimum-(clock, id) runnable
// processor, steps parked waits inline (stepWait), and calls Resume for
// processors whose wait has completed. The schedule is governed by the
// same heaps, the same event drains, and the same tie-breaks as the
// coroutine mode, so a program expressed both ways sees the identical
// virtual timeline wherever it parks; see DESIGN.md §11 for the
// equivalence argument and the one divergence (poll points cannot yield
// the stack mid-body).
func (e *Engine) RunResumables(bodies []Resumable) error {
	if len(bodies) != len(e.procs) {
		return fmt.Errorf("sim: RunResumables got %d bodies for %d procs", len(bodies), len(e.procs))
	}
	if e.started {
		return fmt.Errorf("sim: engine already started; New an engine per run")
	}
	e.started = true
	e.resumable = true
	e.liveCount = len(e.procs)
	for i, p := range e.procs {
		p.body = bodies[i]
		p.state = stateReady
		e.ready.push(p)
	}
	e.drive()
	return e.failure
}

// drive is the resumable-mode scheduler loop. It terminates when every
// body is done, when the simulation deadlocks, or when a failure aborts
// the run (Engine.Fail, a time limit, or a panicking body).
func (e *Engine) drive() {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(abortPanic); ok {
			// Fail/stepWait recorded the failure and tore the run down;
			// the driver simply stops.
			return
		}
		// A body (or a handler it ran) panicked. Attribute it like
		// procMain does for a coroutine body, first failure wins.
		p := e.stepping
		if p != nil {
			e.recordFailure(fmt.Errorf("sim: proc %d panicked at %v: %v", p.id, p.clock, r))
		} else {
			e.recordFailure(fmt.Errorf("sim: resumable driver panicked: %v", r))
		}
		e.abortFromRunning()
	}()
	for {
		p := e.next()
		if p == nil {
			if e.liveCount == 0 {
				return
			}
			e.recordFailure(e.deadlockError())
			return
		}
		if p.wait != nil {
			// Parked in a pollable wait: drive one iteration, exactly as
			// dispatch does for coroutine waiters.
			e.stepWait(p)
			continue
		}
		e.resumeStep(p)
	}
}

// resumeStep runs one Resume call on the minimum-clock processor and
// parks or retires it according to the result. The park leaves the
// processor in the ready heap with its wait registered — the same shape
// WakeAt produces — so the driver's next pop runs the first wait
// iteration (condition test, one poll, spin-forward, or true block) at
// the same point the coroutine wait loop would have run it after its
// opening Checkpoint.
//
//repro:hotpath
func (e *Engine) resumeStep(p *Proc) {
	if e.timeLimit > 0 && p.clock > e.timeLimit {
		// The check a coroutine body would have hit at its next
		// Checkpoint; resumable bodies reach it between Resume calls.
		e.recordFailure(fmt.Errorf("sim: proc %d at %v: %w", p.id, p.clock, ErrTimeLimit))
		e.abortFromRunning()
		panic(abortPanic{})
	}
	p.state = stateRunning
	e.stepping = p
	w, done := p.body.Resume(p)
	e.stepping = nil
	if done {
		p.state = stateDone
		p.body = nil
		e.liveCount--
		return
	}
	if w == nil {
		panic(fmt.Sprintf("sim: proc %d Resume returned neither a wait nor done", p.id))
	}
	p.wait = w
	p.blockReason = waitReason(w)
	p.state = stateReady
	e.ready.push(p)
}

// RunDueEvents executes every pending event due at or before the
// processor's clock. It is the event half of a Checkpoint — the half a
// resumable body is allowed to use: deliveries and credit returns
// materialize, parked processors are woken (their wakes queue as
// pending), but no control transfer happens. Continuation-mode poll
// points call this before inspecting their inboxes.
//
//repro:hotpath
func (p *Proc) RunDueEvents() { p.eng.drainEvents(p.clock) }

// Yield is the resumable-mode Checkpoint: a wait that is ready the
// moment it is tested. Returning it from Resume parks the processor in
// the ready heap at its current clock, so every processor whose clock is
// lower runs first and the body is re-entered immediately afterwards —
// the scheduling effect of a coroutine Checkpoint, without a stack to
// switch away from. Spin loops (for example a lock retry) must yield
// this way between iterations or peers could never make the awaited
// progress.
var Yield PollableWait = yieldWait{}

type yieldWait struct{}

func (yieldWait) Ready(*Proc) bool            { return true }
func (yieldWait) PollOne(*Proc) bool          { return false }
func (yieldWait) NextWork(*Proc) (Time, bool) { return 0, false }
func (yieldWait) WaitReason() string          { return "sim: yield" }
