package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// stepFn adapts a closure to Resumable for tests.
type stepFn func(p *Proc) (PollableWait, bool)

func (f stepFn) Resume(p *Proc) (PollableWait, bool) { return f(p) }

// ctrWait is a minimal pollable wait on a shared counter.
type ctrWait struct {
	ctr    *int64
	target int64
}

func (w *ctrWait) Ready(_ *Proc) bool            { return *w.ctr >= w.target }
func (w *ctrWait) PollOne(_ *Proc) bool          { return false }
func (w *ctrWait) NextWork(_ *Proc) (Time, bool) { return 0, false }
func (w *ctrWait) WaitReason() string            { return "test: counter wait" }

// forever is a wait nothing ever ends.
var forever = &ctrWait{ctr: new(int64), target: 1}

func TestRunResumablesAdvances(t *testing.T) {
	e := New(Config{Procs: 4, Seed: 1})
	bodies := make([]Resumable, 4)
	for i := range bodies {
		d := Time(i+1) * Microsecond
		bodies[i] = stepFn(func(p *Proc) (PollableWait, bool) {
			p.Advance(d)
			return nil, true
		})
	}
	if err := e.RunResumables(bodies); err != nil {
		t.Fatal(err)
	}
	if got, want := e.MaxClock(), 4*Microsecond; got != want {
		t.Fatalf("MaxClock = %v, want %v", got, want)
	}
}

// TestRunResumablesWaitChain has proc 0 release procs 1..P-1 through a
// counter set by a scheduled event; each released proc then advances and
// finishes. Exercises park, event-driven wake, and multi-step bodies.
func TestRunResumablesWaitChain(t *testing.T) {
	const P = 8
	e := New(Config{Procs: P, Seed: 1})
	var released int64
	bodies := make([]Resumable, P)
	bodies[0] = stepFn(func(p *Proc) (PollableWait, bool) {
		p.Advance(10 * Microsecond)
		at := p.Clock()
		e.ScheduleCall(at, func(any, Time) {
			released = 1
			for i := 1; i < P; i++ {
				e.Proc(i).WakeAt(at)
			}
		}, nil)
		return nil, true
	})
	for i := 1; i < P; i++ {
		step := 0
		bodies[i] = stepFn(func(p *Proc) (PollableWait, bool) {
			switch step {
			case 0:
				step = 1
				return &ctrWait{ctr: &released, target: 1}, false
			default:
				if released != 1 {
					t.Errorf("proc %d resumed before release", p.ID())
				}
				if p.Clock() < 10*Microsecond {
					t.Errorf("proc %d resumed at %v, want >= 10µs", p.ID(), p.Clock())
				}
				p.Advance(Microsecond)
				return nil, true
			}
		})
	}
	if err := e.RunResumables(bodies); err != nil {
		t.Fatal(err)
	}
	if got, want := e.MaxClock(), 11*Microsecond; got != want {
		t.Fatalf("MaxClock = %v, want %v", got, want)
	}
}

func TestRunResumablesDeadlock(t *testing.T) {
	e := New(Config{Procs: 2, Seed: 1})
	var never int64
	parked := false
	bodies := []Resumable{
		stepFn(func(p *Proc) (PollableWait, bool) { return nil, true }),
		stepFn(func(p *Proc) (PollableWait, bool) {
			if !parked {
				parked = true
				return &ctrWait{ctr: &never, target: 1}, false
			}
			return nil, true
		}),
	}
	err := e.RunResumables(bodies)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "test: counter wait") {
		t.Fatalf("deadlock diagnostics missing wait reason: %v", err)
	}
}

// TestDeadlockErrorBounded parks P = 100k bodies on a wait nothing ends:
// the error names the deadlock and proc 0's wait, lists a bounded prefix
// of the blocked processors and counts the rest, and comes back fast.
// Built by concatenating a line per blocked processor it was quadratic
// in P — seconds at P = 10k, and megabytes of message.
func TestDeadlockErrorBounded(t *testing.T) {
	const procs = 100_000
	e := New(Config{Procs: procs, Seed: 1})
	bodies := make([]Resumable, procs)
	for i := range bodies {
		bodies[i] = stepFn(func(*Proc) (PollableWait, bool) { return forever, false })
	}
	//lint:allow simwallclock the test bounds the host time of the report; no simulated time reads it
	start := time.Now()
	err := e.RunResumables(bodies)
	//lint:allow simwallclock as above
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	msg := err.Error()
	if want := fmt.Sprintf("proc 0 blocked at %v: %s", Time(0), forever.WaitReason()); !strings.Contains(msg, want) {
		t.Fatalf("deadlock error lacks %q:\n%s", want, msg)
	}
	if want := fmt.Sprintf("and %d more blocked", procs-deadlockShown); !strings.Contains(msg, want) {
		t.Fatalf("deadlock error lacks %q:\n%s", want, msg)
	}
	if len(msg) >= 4096 {
		t.Fatalf("deadlock error is %d bytes at P = %d", len(msg), procs)
	}
	if elapsed >= time.Second {
		t.Fatalf("a deadlocked run at P = %d took %v to report", procs, elapsed)
	}
}

func TestRunResumablesTimeLimit(t *testing.T) {
	// The limit check runs between Resume calls and in stepWait, like the
	// Checkpoint check in coroutine mode: a body that advances past the
	// limit is caught at its next park.
	e := New(Config{Procs: 1, Seed: 1, TimeLimit: Microsecond})
	step := 0
	var done int64
	body := stepFn(func(p *Proc) (PollableWait, bool) {
		if step == 0 {
			step = 1
			p.Advance(10 * Microsecond)
			return &ctrWait{ctr: &done, target: 1}, false
		}
		return nil, true
	})
	err := e.RunResumables([]Resumable{body})
	if !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("err = %v, want ErrTimeLimit", err)
	}
}

func TestResumableForbidsCoroutinePrimitives(t *testing.T) {
	for name, call := range map[string]func(*Proc){
		"Checkpoint": (*Proc).Checkpoint,
		"Await":      func(p *Proc) { p.Await(Yield) },
		"Sleep":      func(p *Proc) { p.Sleep(10) },
	} {
		e := New(Config{Procs: 1, Seed: 1})
		err := e.RunResumables([]Resumable{stepFn(func(p *Proc) (PollableWait, bool) {
			call(p)
			return nil, true
		})})
		if err == nil || !strings.Contains(err.Error(), "from a resumable body") {
			t.Errorf("%s: err = %v, want the resumable-body violation", name, err)
		}
	}
}

func TestEngineSingleUse(t *testing.T) {
	e := New(Config{Procs: 1, Seed: 1})
	if err := e.Run(func(p *Proc) {}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunResumables([]Resumable{stepFn(func(p *Proc) (PollableWait, bool) { return nil, true })}); err == nil {
		t.Fatal("second start on one engine should fail")
	}
}

// TestYieldDrainsToOwnClock pins the scheduler's one invariant on the case
// that tells it apart from "run events up to the minimum clock": proc 1
// gives up the CPU at clock 100 with an event pending at t=80, while proc
// 0 sits at clock 50 about to test a condition that event sets. Every
// event due by the yielder's clock runs before anyone else does, so proc 0
// sees the condition hold at 50 — whether the bodies are blocking
// functions or state machines returning Yield.
func TestYieldDrainsToOwnClock(t *testing.T) {
	setup := func() (e *Engine, flag *int64, arm func()) {
		e = New(Config{Procs: 2})
		flag = new(int64)
		return e, flag, func() {
			e.ScheduleCall(80, func(any, Time) { *flag = 1; e.Proc(0).WakeAt(80) }, nil)
		}
	}

	var blocking Time
	e, flag, arm := setup()
	if err := e.Run(func(p *Proc) {
		if p.ID() == 1 {
			arm()
			p.Advance(100)
			p.Checkpoint()
			return
		}
		p.Advance(50)
		p.Checkpoint()
		p.Await(&ctrWait{ctr: flag, target: 1})
		blocking = p.Clock()
	}); err != nil {
		t.Fatal(err)
	}

	var resumable Time
	e, flag, arm = setup()
	step := [2]int{}
	if err := e.RunResumables([]Resumable{
		stepFn(func(p *Proc) (PollableWait, bool) {
			step[0]++
			switch step[0] {
			case 1:
				p.Advance(50)
				return Yield, false
			case 2:
				return &ctrWait{ctr: flag, target: 1}, false
			}
			resumable = p.Clock()
			return nil, true
		}),
		stepFn(func(p *Proc) (PollableWait, bool) {
			step[1]++
			if step[1] == 1 {
				arm()
				p.Advance(100)
				return Yield, false
			}
			return nil, true
		}),
	}); err != nil {
		t.Fatal(err)
	}

	if blocking != 50 || resumable != 50 {
		t.Errorf("proc 0 saw the t=80 event's effect at %v (blocking) and %v (resumable), want 50 for both", blocking, resumable)
	}
}
