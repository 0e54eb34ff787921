// Package splitc exercises the contsafe analyzer. The import path ends
// in internal/splitc so the fixture falls inside the analyzer's scope;
// a function returning PollableWait is a continuation and must not
// block, leak opState sub-states, or persist clock readings across a
// yield.
package splitc

// PollableWait is the continuation signature shape the analyzer keys on.
type PollableWait interface{ Ready() bool }

// Proc provides the clock and the blocking primitives the fixtures call.
type Proc struct{ now int64 }

func (p *Proc) Now() int64         { return p.now }
func (p *Proc) SleepUntil(t int64) { _ = t }
func (p *Proc) Request(dst int)    { _ = dst }

type task struct {
	pc       int
	start    int64
	deadline int64
}

// A continuation must return a wait instead of blocking.
func (t *task) badBlock(p *Proc) PollableWait {
	p.SleepUntil(t.deadline) // want `calls blocking primitive SleepUntil`
	return nil
}

// The escape hatch suppresses a sanctioned blocking call.
func (t *task) allowedBlock(p *Proc) PollableWait {
	//lint:allow contsafe fixture: demonstrating the escape hatch
	p.Request(1)
	return nil
}

// State 3 is assigned but no case consumes it; case 2 is dispatched on
// but never assigned.
func (t *task) badStates(p *Proc) PollableWait {
	switch t.pc {
	case 0:
		t.pc = 1
	case 1:
		t.pc = 3 // want `dead state`
	case 2: // want `unreachable state`
		t.pc = 0
	}
	return nil
}

// A clock reading stored into persistent state is stale on re-entry.
func (t *task) badClock(p *Proc) PollableWait {
	t.start = p.Now() // want `survives a yield point`
	return nil
}

// Taint flows through locals before the persistent store.
func (t *task) badClockLocal(p *Proc) PollableWait {
	now := p.Now()
	t.start = now + 10 // want `survives a yield point`
	return nil
}

// A well-formed poll function: closed state machine, clock read only
// compared, never persisted.
func (t *task) goodStep(p *Proc) PollableWait {
	switch t.pc {
	case 0:
		if p.Now() >= t.deadline {
			t.pc = 1
		}
	case 1:
		t.pc = 0
	}
	return nil
}

// No PollableWait result: not a continuation, free to block and stamp.
func (t *task) setup(p *Proc) {
	t.start = p.Now()
	p.SleepUntil(t.start)
}
