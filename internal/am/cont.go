package am

import (
	"fmt"

	"repro/internal/sim"
)

// The endpoint's non-blocking pieces: the single implementation of the
// send path, shared by both body forms.
//
// A state-machine processor body (sim.Resumable) cannot call the blocking
// endpoint operations — Request, Store, Poll, WaitUntilFor — because they
// wait by suspending the caller's stack, and a state machine has none.
// The methods in this file are the three things each blocking operation
// actually does:
//
//  1. poll   — PollOneDue services one arrival present at the NIC (GAM
//     polls on every request), with the caller yielding between steps;
//  2. wait   — WindowWait / CounterWait / QuiesceWait / CondWait hand the
//     scheduler a wait record to drive (closure-free but for CondWait's
//     predicate), which reports its own span to the hooks;
//  3. commit — SendRequest / SendStore take a window credit and hand the
//     message to the endpoint's one send commit (charge, count, launch;
//     am.go), with no possibility of blocking.
//
// The blocking operations in am.go are these same pieces assembled for a
// body with a stack: where a continuation body returns sim.Yield the
// blocking form calls Checkpoint, and where it returns a wait the
// blocking form hands it to sim.Proc.Await. There is no second copy of
// any charge or window rule to keep in step, and one scheduler loop
// takes the waits of both (DESIGN.md §11).

// PollOneDue services at most one message that has arrived by the
// processor's current time, charging o_recv and running its handler —
// one step of a poll. Pending engine events due by the clock are drained
// around the step so deliveries and credit returns materialize exactly as
// a Checkpoint would have made them. Returns whether a message was
// processed; the caller must yield (sim.Yield, or Checkpoint in a
// blocking body) before the first step and between steps so slower
// processors interleave.
//
//repro:hotpath
func (ep *Endpoint) PollOneDue() bool {
	if ep.inHandler {
		panic("am: PollOneDue called from a message handler")
	}
	ep.proc.RunDueEvents()
	if !ep.pollOne() {
		return false
	}
	ep.proc.RunDueEvents()
	return true
}

// CanSend reports whether a request credit toward dst is free, i.e.
// whether SendRequest/SendStore may be called without a window stall.
//
//repro:hotpath
func (ep *Endpoint) CanSend(dst int) bool {
	return ep.outstanding.get(dst) < ep.params().Window
}

// Each wait constructor arms the endpoint's one reusable record, which
// reports WaitBegin to the hooks at once and WaitEnd when the scheduler
// first finds it over: call one only to park on the wait it returns.

// WindowWait returns the endpoint's reusable wait for a free request
// credit toward dst, reported as WaitWindow. Park on it when CanSend is
// false; by the next Resume call a credit is free.
//
//repro:hotpath
func (ep *Endpoint) WindowWait(dst int) sim.PollableWait {
	return ep.pw.set(waitModeWindow, WaitWindow, nil, nil, 0, dst, ep.params().Window, "am: window stall")
}

// CounterWait returns the endpoint's reusable wait for *ctr >= target,
// reported as kind. Counters must be cumulative (monotonically
// nondecreasing) — replies received, barrier notifications, collective
// operands — so that a wait constructed against a stale snapshot can
// only be satisfied early, never missed. Closure-free: the record points
// at the counter directly.
//
//repro:hotpath
func (ep *Endpoint) CounterWait(kind WaitKind, ctr *int64, target int64, reason string) sim.PollableWait {
	return ep.pw.set(waitModeCounter, kind, nil, ctr, target, 0, 0, reason)
}

// CondWait returns the endpoint's reusable wait for cond() to hold,
// reported as kind — the continuation form of WaitUntilFor, which is
// built on it. cond is tested only by the scheduler and must be a pure
// predicate. Build it once, not per wait: each closure built is an
// allocation.
func (ep *Endpoint) CondWait(kind WaitKind, cond func() bool, reason string) sim.PollableWait {
	return ep.pw.set(waitModeCond, kind, cond, nil, 0, 0, 0, reason)
}

// QuiesceWait returns the endpoint's reusable wait for all outstanding
// requests to be acked, reported as WaitStore — the continuation form of
// a store sync.
//
//repro:hotpath
func (ep *Endpoint) QuiesceWait() sim.PollableWait {
	return ep.pw.set(waitModeQuiesce, WaitStore, nil, nil, 0, 0, 0, "am: store sync")
}

// SendRequest is the commit half of Request: consume a window credit,
// then charge o_send and launch. The caller is responsible for the GAM
// request preamble — a yield-interleaved PollOneDue loop, then a
// WindowWait park if CanSend is false; calling with a full window is a
// discipline violation and panics rather than silently overrunning the
// capacity constraint.
//
//repro:hotpath
func (ep *Endpoint) SendRequest(dst int, class Class, h Handler, args Args) {
	ep.takeCredit("SendRequest", dst, h == nil)
	ep.commit(kindRequest, dst, class, h, nil, args, nil)
}

// takeCredit enforces the request discipline SendRequest and SendStore
// share — not from a handler, a handler given, a free window credit
// toward dst — and consumes the credit.
//
//repro:hotpath
func (ep *Endpoint) takeCredit(op string, dst int, nilHandler bool) {
	ep.checkRequestContext(op)
	if nilHandler {
		panic("am: " + op + " with nil handler")
	}
	if !ep.CanSend(dst) {
		panic(fmt.Sprintf("am: %s from proc %d with a full window toward %d; park on WindowWait first", op, ep.ID(), dst))
	}
	ep.outstanding.inc(dst)
}

// SendStore is the commit half of Store: one bulk fragment under the
// window, no blocking. The same preamble discipline as SendRequest
// applies. The data is copied at send time.
//
//repro:hotpath
func (ep *Endpoint) SendStore(dst int, class Class, h BulkHandler, args Args, data []byte) {
	if p := ep.params(); len(data) > p.FragmentSize {
		panic(fmt.Sprintf("am: bulk fragment of %d bytes exceeds fragment size %d; use StoreLarge", len(data), p.FragmentSize))
	}
	ep.takeCredit("SendStore", dst, h == nil)
	//lint:allow hotpathalloc bulk payload copy is the transfer semantics; the zero-alloc property covers short messages
	buf := make([]byte, len(data))
	copy(buf, data)
	ep.commit(kindBulk, dst, class, nil, h, args, buf)
}

// MarkSyncEnter reports to the attached hooks that this processor
// entered synchronization region r; the layer that implements barriers
// and locks brackets each one with it. No-op when no hooks are attached.
func (ep *Endpoint) MarkSyncEnter(r SyncRegion) {
	for _, h := range ep.m.hooks {
		h.SyncEnter(ep.ID(), r, ep.proc.Clock())
	}
}

// MarkSyncExit closes a region opened by MarkSyncEnter.
func (ep *Endpoint) MarkSyncExit(r SyncRegion) {
	for _, h := range ep.m.hooks {
		h.SyncExit(ep.ID(), r, ep.proc.Clock())
	}
}
