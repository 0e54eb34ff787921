package am

import (
	"fmt"

	"repro/internal/sim"
)

// The endpoint's resumable forms: the one spelling of the GAM poll and
// request preamble, shared by both body forms.
//
// A state-machine processor body (sim.Resumable) cannot wait by
// suspending its stack, because it has none; it returns the wait to the
// engine and is called again once the wait is over. The methods in this
// file are written that way:
//
//  1. PollT services the arrivals due at the NIC one per call (GAM polls
//     on every request), returning sim.Yield between steps;
//  2. RequestT / StoreT run the request preamble — PollT, then a park on
//     the window toward the destination if it is full — and then hand
//     the message to the endpoint's one send commit (charge, count,
//     launch; am.go). The preamble's progress is one byte on the
//     endpoint, so a parked call is simply re-called with the same
//     arguments;
//  3. CounterWait / QuiesceWait / CondWait hand the scheduler a wait
//     record to drive (closure-free but for CondWait's predicate), which
//     reports its own span to the hooks.
//
// The blocking Poll, Request and Store in am.go are loops over PollT,
// RequestT and StoreT that hand every wait to sim.Proc.Await, so there is
// no second copy of any poll, window or charge rule to keep in step, and
// one scheduler loop takes the waits of both body forms (DESIGN.md §11).

// PollT is the resumable form of Poll: it services every message that
// has arrived by the processor's clock, charging o_recv and running its
// handler, one message per call. It returns sim.Yield before the first
// inbox inspection and after every serviced message, so slower
// processors interleave; a nil return means the inbox is drained.
// Pending engine events due by the clock are drained around each step so
// deliveries and credit returns materialize exactly as a Checkpoint would
// have made them. ep.pre: 0 idle, 1 between poll steps.
//
//repro:hotpath
func (ep *Endpoint) PollT() sim.PollableWait {
	if ep.inHandler {
		panic("am: Poll called from a message handler")
	}
	switch ep.pre {
	case 0:
		ep.pre = 1
		return sim.Yield
	case 1:
		ep.proc.RunDueEvents()
		if ep.pollOne() {
			ep.proc.RunDueEvents()
			return sim.Yield
		}
	}
	ep.pre = 0
	return nil
}

// RequestT is the resumable form of Request: the request preamble, then
// the send. A call that returned a wait is re-called with the same
// arguments once the wait is over, and sends once.
//
//repro:hotpath
func (ep *Endpoint) RequestT(dst int, class Class, h Handler, args Args) sim.PollableWait {
	if wt := ep.preamble("Request", dst, h == nil); wt != nil {
		return wt
	}
	ep.commit(kindRequest, dst, class, h, nil, args, nil)
	return nil
}

// StoreT is the resumable form of Store: one bulk fragment (≤
// FragmentSize bytes) under the window, re-called like RequestT. The data
// is copied at send time.
//
//repro:hotpath
func (ep *Endpoint) StoreT(dst int, class Class, h BulkHandler, args Args, data []byte) sim.PollableWait {
	if p := ep.params(); len(data) > p.FragmentSize {
		panic(fmt.Sprintf("am: bulk fragment of %d bytes exceeds fragment size %d; use StoreLarge", len(data), p.FragmentSize))
	}
	if wt := ep.preamble("Store", dst, h == nil); wt != nil {
		return wt
	}
	//lint:allow hotpathalloc bulk payload copy is the transfer semantics; the zero-alloc property covers short messages
	buf := make([]byte, len(data))
	copy(buf, data)
	ep.commit(kindBulk, dst, class, nil, h, args, buf)
	return nil
}

// preamble is the GAM request preamble RequestT and StoreT share: not
// from a handler, a handler given, a poll, then a park on the window
// toward dst if it is full. A nil return means a window credit toward dst
// has been taken and the caller commits its send at once. ep.pre: 0/1
// inside PollT, 2 re-entered after a window park.
//
//repro:hotpath
func (ep *Endpoint) preamble(op string, dst int, nilHandler bool) sim.PollableWait {
	if ep.inHandler {
		panic(fmt.Sprintf("am: %s called from a message handler on proc %d; handlers may only Reply", op, ep.ID()))
	}
	if nilHandler {
		panic("am: " + op + " with nil handler")
	}
	// After a window park the scheduler has established a free credit;
	// take it without re-testing.
	if ep.pre != 2 {
		if wt := ep.PollT(); wt != nil {
			return wt
		}
		if ep.outstanding.get(dst) >= ep.params().Window {
			ep.pre = 2
			return ep.pw.set(waitModeWindow, WaitWindow, nil, nil, 0, dst, ep.params().Window, "am: window stall")
		}
	}
	ep.pre = 0
	ep.outstanding.inc(dst)
	return nil
}

// Each wait constructor arms the endpoint's one reusable record, which
// reports WaitBegin to the hooks at once and WaitEnd when the scheduler
// first finds it over: call one only to park on the wait it returns.

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
