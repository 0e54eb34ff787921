package sim

import "fmt"

// Resumable is a processor body as the scheduler sees it: the engine
// calls Resume repeatedly on the owning processor's behalf. Each call
// runs the body forward — charging time, sending messages, mutating its
// own state — until the body either finishes (done=true) or must wait
// (wait non-nil). A state-machine body never owns a stack across calls:
// everything it needs between calls lives in its own struct, which is
// what lets a single OS thread drive a million simulated processors.
// RunEach's blocking bodies are Resumables too, each stepping a
// suspended function from one Proc.Await to the next.
//
// Contract:
//
//   - Resume runs on the scheduler's stack with the processor in
//     stateRunning. A state machine must not call Checkpoint, Await,
//     Sleep or the blocking operations built on them (they suspend a
//     stack it does not have); the run fails if it does. Its poll points
//     are Proc.RunDueEvents plus the messaging layer's continuation
//     primitives instead.
//   - The engine takes the returned wait over (see Engine.turn): first it
//     runs every event due by the processor's clock, and the next Resume
//     call happens only once the wait's Ready condition has been
//     established, every processor at a smaller (clock, id) having had
//     its turn. Bodies may therefore treat re-entry as "the wait
//     completed".
//   - Returning (nil, false) is a contract violation and panics: a body
//     that cannot finish must name what it is waiting for, or the
//     scheduler could neither run nor retire it.
type Resumable interface {
	Resume(p *Proc) (wait PollableWait, done bool)
}

// WaitReasoner optionally labels a PollableWait for deadlock diagnostics:
// a processor blocked on a wait that implements it reports the label as
// its block reason.
type WaitReasoner interface {
	WaitReason() string
}

// RunResumables executes one Resumable body per processor and returns
// when all have finished — entirely on the caller's goroutine: the
// scheduler pops the minimum-(clock, id) runnable processor, runs its
// wait iterations, and calls Resume once its wait has completed.
func (e *Engine) RunResumables(bodies []Resumable) error {
	if len(bodies) != len(e.procs) {
		return fmt.Errorf("sim: got %d bodies for %d procs", len(bodies), len(e.procs))
	}
	if e.started {
		return fmt.Errorf("sim: engine already started; New an engine per run")
	}
	e.started = true
	e.liveCount = len(e.procs)
	for i, p := range e.procs {
		p.body = bodies[i]
		p.state = stateReady
		e.ready.push(p)
	}
	e.drive()
	return e.failure
}

// RunDueEvents executes every pending event due at or before the
// processor's clock: deliveries and credit returns materialize, blocked
// processors are woken, but the CPU stays where it is. Continuation-mode
// poll points call this before inspecting their inboxes.
//
//repro:hotpath
func (p *Proc) RunDueEvents() { p.eng.drainEvents(p.clock) }

// Yield is a wait that is over the moment it is tested. Waiting on it —
// returning it from Resume, or Proc.Checkpoint — is a pure scheduling
// point: every event due by the processor's clock runs, every processor
// whose (clock, id) is smaller has its turn, and the body continues.
// Spin loops (for example a lock retry) must yield this way between
// iterations or peers could never make the awaited progress.
var Yield PollableWait = yieldWait{}

type yieldWait struct{}

func (yieldWait) Ready(*Proc) bool            { return true }
func (yieldWait) PollOne(*Proc) bool          { return false }
func (yieldWait) NextWork(*Proc) (Time, bool) { return 0, false }
func (yieldWait) WaitReason() string          { return "sim: yield" }
