//go:build go1.23

// The build tag is this file's language version, not a platform choice:
// go.mod says go 1.22 (the benchmark module pins it) and package iter
// needs 1.23, which a file-level tag may raise. The module does not build
// with an older toolchain.

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// coro makes a blocking body a Resumable. The body runs as an iter.Pull
// coroutine — its own stack, but never its own thread of control: Resume
// switches to it, and it switches back by yielding the wait it needs
// (Proc.Await). This file is the only place a simulation may start a
// coroutine (reprolint's goroutinefree enforces it): iter.Pull is a
// goroutine the host scheduler never gets to order.
type coro struct {
	body func(*Proc)
	next func() (PollableWait, bool)
	stop func()
}

// Resume runs the body to its next Await, or to its end.
func (c *coro) Resume(p *Proc) (PollableWait, bool) {
	e := p.eng
	if e.onStack != p {
		if e.onStack != nil {
			e.switches++
		}
		e.onStack = p
	}
	if c.next == nil {
		c.next, c.stop = iter.Pull(func(yield func(PollableWait) bool) {
			// The body's stack ends here, so this is where its panics
			// become the run's failure; once recorded, the body is done.
			defer func() {
				switch r := recover().(type) {
				case nil, abortPanic:
				default:
					e.recordFailure(fmt.Errorf("sim: proc %d panicked at %v: %v\n%s", p.id, p.clock, r, debug.Stack()))
				}
			}()
			p.yield = yield
			c.body(p)
		})
	}
	w, ok := c.next()
	return w, !ok
}

// RunEach is Run with a distinct body per processor.
func (e *Engine) RunEach(bodies []func(*Proc)) error {
	coros := make([]coro, len(bodies))
	rs := make([]Resumable, len(bodies))
	for i, body := range bodies {
		coros[i].body = body
		rs[i] = &coros[i]
	}
	err := e.RunResumables(rs)
	// A failed run leaves bodies suspended in their waits. stop makes the
	// pending yield return false, Await panics, and the body unwinds
	// through its deferred calls; whatever those raise arrives after the
	// root cause and is dropped (first failure wins).
	for i := range coros {
		if coros[i].stop != nil {
			coros[i].stop()
		}
	}
	return err
}
