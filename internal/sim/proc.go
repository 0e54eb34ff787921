package sim

import (
	"fmt"
	"math/rand"
)

// ClockKind classifies a clock advance for the optional per-processor
// clock hook (see Proc.SetClockHook). An explicit Advance is not one of
// them: the layer issuing a charge knows what it was for and reports it
// itself.
type ClockKind uint8

const (
	// ClockSpin is an AdvanceTo past idle time toward a known future
	// event (for example a message already in flight).
	ClockSpin ClockKind = iota
	// ClockWake is the jump a parked processor's clock makes when an
	// event wakes it at a future time.
	ClockWake
	// ClockStretch is fault-injected time appended to an explicit charge
	// by the stretch hook (see Proc.SetStretch): one-off processor
	// stalls. Profilers account it separately from the base charge,
	// which the charging layer reports itself.
	ClockStretch
)

type procState uint8

const (
	statePending procState = iota // no run has started yet
	stateRunning                  // holds the CPU: its turn in the scheduler
	stateReady                    // runnable, waiting in the ready heap
	stateBlocked                  // out of the heap until WakeAt
	stateDone                     // body returned
)

// Proc is one simulated processor. Its body is a Resumable the scheduler
// steps: either a state machine (RunResumables), or an ordinary blocking
// function wrapped so that each of its waits becomes one Resume return
// (RunEach). Both manipulate virtual time through this handle and wait on
// the same PollableWait records, driven by the same loop (Engine.turn) —
// which is why a program expressed either way sees the same virtual
// timeline. A Proc is not safe for use from outside its body's execution
// context (the engine guarantees only one body runs at a time, so
// cross-proc data structures need no locking, but a Proc handle must not
// be captured by another body); WakeAt is the one exception.
type Proc struct {
	id    int
	eng   *Engine
	clock Time
	state procState
	// body is what the scheduler steps; nil once it is done.
	body Resumable
	// yield suspends a blocking body on a wait until the scheduler has
	// seen that wait over; it returns false when the run was torn down
	// instead. nil for a state-machine body, which has no stack to suspend.
	yield func(PollableWait) bool

	// rng is built lazily by Rand: a million-processor machine whose
	// bodies never draw random numbers should not pay ~5 KiB of PRNG
	// state per processor up front.
	rng *rand.Rand

	// pendingWakes records the instants, later than the clock when they
	// were recorded, of WakeAt calls that arrived while the processor was
	// not blocked (running, ready, or not yet started). A wait that would
	// block moves the clock to the earliest one still ahead instead
	// (takeWake), so no wakeup is ever lost. Sorted ascending, no
	// duplicates. Entries the clock has passed are dead, and WakeAt drops
	// them: a processor that keeps finding work in its inbox never calls
	// takeWake, so left alone they pile up (59 per processor at
	// scale-radix's peak at P = 10k, nearly all dead). The live ones are
	// few: at most 6 per processor on the scale-radix ladder through
	// P = 100k, 1.5 per processor on average at the peak.
	pendingWakes []Time

	// wait, when non-nil, is the wait the processor is in: the scheduler
	// runs its iterations and resumes the body once it is over.
	wait PollableWait
	// sleep is the wait record behind SleepUntil, kept here so that
	// sleeping allocates nothing.
	sleep sleepWait

	// onClock, when set, observes every clock mutation (see SetClockHook).
	onClock func(kind ClockKind, from, to Time)

	// onStretch, when set, may append fault-injected time to every
	// explicit charge (see SetStretch).
	onStretch func(from, d Time) Time
}

func newProc(e *Engine, id int) *Proc {
	return &Proc{
		id:    id,
		eng:   e,
		state: statePending,
	}
}

// ID returns the processor number in [0, P).
func (p *Proc) ID() int { return p.id }

// Engine returns the engine this processor belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Clock returns the processor's current virtual time.
func (p *Proc) Clock() Time { return p.clock }

// Rand returns the processor's deterministic PRNG, constructing it on
// first use. The stream depends only on the engine seed and the
// processor id, so laziness cannot perturb any run's timeline.
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.eng.seed*1_000_003 + int64(p.id)*7919 + 1))
	}
	return p.rng
}

// SetClockHook attaches fn to observe every clock mutation of this
// processor that its body did not charge explicitly: idle spins toward
// known arrivals, wake-time jumps and fault-injected stretches. With the
// charges the calling layer reports for each Advance, the observed
// [from, to) spans tile the processor's entire virtual timeline, which
// is what lets a profiler prove time-conservation. fn runs synchronously
// (zero-length advances are skipped) and must not manipulate virtual
// time. nil detaches.
func (p *Proc) SetClockHook(fn func(kind ClockKind, from, to Time)) { p.onClock = fn }

// SetStretch attaches fn, consulted after every explicit nonzero Advance
// with the charge's [from, from+d) span. The returned extra duration (if
// positive) is appended to the charge and reported to the clock hook as
// ClockStretch. This is the seam fault injection uses for one-off
// processor stalls: the charging layer still observes its base cost
// through its own hooks, while the injected extension is attributed
// separately. fn runs synchronously in deterministic order and must not
// manipulate virtual time itself. nil detaches.
func (p *Proc) SetStretch(fn func(from, d Time) Time) { p.onStretch = fn }

// Advance charges d of local computation (or overhead) to the processor.
// The clock hook does not see the charge, only a stretch of it: the
// caller reports what the charge was for. Pure local work never requires
// a checkpoint: nothing another processor does can affect it, because
// messages are only observed at poll points.
//
//repro:hotpath
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic("sim: Advance with negative duration")
	}
	from := p.clock
	p.clock += d
	if p.onStretch != nil && d > 0 {
		if extra := p.onStretch(from, d); extra > 0 {
			sf := p.clock
			p.clock += extra
			if p.onClock != nil {
				p.onClock(ClockStretch, sf, p.clock)
			}
		}
	}
}

// AdvanceTo moves the clock forward to t if t is in the future.
//
//repro:hotpath
func (p *Proc) AdvanceTo(t Time) {
	if t > p.clock {
		from := p.clock
		p.clock = t
		if p.onClock != nil {
			p.onClock(ClockSpin, from, t)
		}
	}
}

// PollableWait is what a processor waits on: a condition plus the work a
// real processor would do while spin-polling for it. Every step is
// expressed against engine and endpoint state rather than the body's
// stack, so the scheduler runs the wait (Engine.turn) and the body is
// resumed only once Ready holds. The methods must not wait themselves.
type PollableWait interface {
	// Ready reports whether the awaited condition holds; the wait ends.
	// It must not change what it tests: the scheduler may test it more
	// than once at the same instant. The first true is the end of the
	// wait — no event runs and no clock moves before the body resumes —
	// so a record may report that end there, once.
	Ready(p *Proc) bool
	// PollOne services at most one unit of work due at or before p's
	// clock (for example one arrived message, charging its receive
	// overhead), reporting whether it did.
	PollOne(p *Proc) bool
	// NextWork returns the earliest known future instant at which work
	// for this waiter arrives (for example the head in-flight message),
	// or ok=false when none is known and the processor must block.
	NextWork(p *Proc) (t Time, ok bool)
}

// Await suspends a blocking body until w is over: every event due by the
// processor's clock has run, every processor at a smaller (clock, id) has
// had its turn, and Ready held. It hands w to the scheduler, which treats
// it exactly as a wait returned from Resume; every blocking operation of
// the layers above — endpoint window stalls, WaitUntilFor, the Split-C
// primitives — funnels through it. When nothing but this processor can
// run at its clock and w is already over, the scheduler would hand the
// CPU straight back, and Await saves the round trip; the decision is
// still the scheduler's own (Engine.holds).
//
//repro:hotpath
func (p *Proc) Await(w PollableWait) {
	if p.yield == nil {
		//lint:allow hotpathalloc misuse diagnosis; the run is over
		p.eng.Fail(fmt.Errorf("sim: proc %d: Checkpoint, Await or Sleep from a resumable body; return the wait from Resume instead", p.id))
	}
	if p.eng.holds(p) && w.Ready(p) {
		return
	}
	if !p.yield(w) {
		panic(abortPanic{})
	}
}

// Checkpoint is a synchronization point: all events due at or before the
// processor's clock are executed, and every runnable processor with a
// smaller clock (or equal clock and smaller ID) runs first. Communication
// layers call this at every poll point so that message arrivals are
// observed in virtual-time order.
//
//repro:hotpath
func (p *Proc) Checkpoint() { p.Await(Yield) }

// waitReason labels w for deadlock diagnostics.
func waitReason(w PollableWait) string {
	if r, ok := w.(WaitReasoner); ok {
		return r.WaitReason()
	}
	return "pollable wait"
}

// WakeAt makes a blocked processor runnable at time t (or at its own clock,
// whichever is later). If the processor is not currently blocked and t is
// in its future, the wakeup is recorded and a wait that would block spins
// forward to t instead, so wakeups are never lost. A t the processor has
// already reached needs no record: whatever the wake announces is visible
// to the wait's next Ready/PollOne/NextWork at the clock it already has.
// WakeAt is the only Proc method that may be called from outside p's own
// execution context (from events or other bodies).
//
//repro:hotpath
func (p *Proc) WakeAt(t Time) {
	switch p.state {
	case stateBlocked:
		if t > p.clock {
			from := p.clock
			p.clock = t
			if p.onClock != nil {
				p.onClock(ClockWake, from, t)
			}
		}
		p.state = stateReady
		p.eng.ready.push(p)
	case stateDone:
		// Nothing to do.
	default:
		if t <= p.clock {
			return
		}
		// Drop the dead prefix once it is at least half the list, so each
		// entry is copied O(1) times however long the list grows, then
		// insert into the sorted list.
		w := p.pendingWakes
		if n := len(w); n > 0 && w[(n-1)/2] <= p.clock {
			dead := (n-1)/2 + 1
			for dead < n && w[dead] <= p.clock {
				dead++
			}
			w = w[:copy(w, w[dead:])]
		}
		i := len(w)
		for i > 0 && w[i-1] > t {
			i--
		}
		if i > 0 && w[i-1] == t {
			p.pendingWakes = w
			return // dedup
		}
		//lint:allow hotpathalloc pending-wake list growth; dead entries are dropped first, so the list stays a few elements and its capacity is kept
		w = append(w, 0)
		copy(w[i+1:], w[i:])
		w[i] = t
		p.pendingWakes = w
	}
}

// takeWake removes and returns the earliest recorded wake that is still
// ahead of the clock, discarding the ones the clock has passed since they
// were recorded; ok is false when none is left. A future wake must be
// honoured even when nothing is left to wait for at it: another
// processor, running ahead, may already have drained the event that sent
// it (a window-credit return, say), and the jump to t is then the only
// trace of the wait the real processor would have sat through.
//
//repro:hotpath
func (p *Proc) takeWake() (t Time, ok bool) {
	w := p.pendingWakes
	i := 0
	for i < len(w) && w[i] <= p.clock {
		i++
	}
	if i == len(w) {
		p.pendingWakes = w[:0]
		return 0, false
	}
	t = w[i]
	// Shift in place rather than re-slicing so the backing array's
	// capacity is never abandoned.
	p.pendingWakes = w[:copy(w, w[i+1:])]
	return t, true
}

// SleepUntil suspends the processor until virtual time t. Spurious wakeups
// (for example message deliveries) do not end the sleep early; a t that is
// not in the future makes it a Checkpoint.
func (p *Proc) SleepUntil(t Time) {
	if t > p.clock {
		p.eng.ScheduleCall(t, wakeProcEvent, p)
	}
	p.sleep.until = t
	p.Await(&p.sleep)
}

// wakeProcEvent is SleepUntil's alarm: a top-level EventFn, so arming a
// sleep allocates nothing (the *Proc rides in the event's arg).
func wakeProcEvent(arg any, at Time) { arg.(*Proc).WakeAt(at) }

// sleepWait is over once the clock has reached until; the alarm's WakeAt
// is what moves it there.
type sleepWait struct{ until Time }

func (s *sleepWait) Ready(p *Proc) bool        { return p.clock >= s.until }
func (*sleepWait) PollOne(*Proc) bool          { return false }
func (*sleepWait) NextWork(*Proc) (Time, bool) { return 0, false }
func (*sleepWait) WaitReason() string          { return "sleep" }

// Sleep suspends the processor for a duration of virtual time.
func (p *Proc) Sleep(d Time) { p.SleepUntil(p.clock + d) }
