package am

import "repro/internal/sim"

// Message-record pooling: the steady-state cost of simulating one short
// message used to be four heap allocations (the message record, the
// arrival closure, the handler Token, and the credit-return closure).
// All four are gone:
//
//   - message records come from a per-machine freelist and are recycled
//     as soon as the receiving host has consumed them (see process);
//   - arrivals and credit returns are scheduled as typed events
//     (sim.Engine.ScheduleCall, the engine's one event path) with the
//     pooled record itself as the event argument;
//   - the handler Token is a per-endpoint scratch value reused across
//     deliveries (handlers may Reply during the handler invocation, and
//     none retains the token past it — the GAM contract).
//
// Ownership rule: a record belongs to exactly one stage at a time —
// sender (until commit), wire (the scheduled arrival event), inbox, or
// host (during process) — and only the final stage may recycle it.
// Recycling at delivery is sound only when each record has exactly one
// arrival event in flight: the reliability layer retransmits records and
// resequences them through its dedup buffers (keeping sender-side
// ownership until the cumulative ack), and a lossy fault injector can
// schedule duplicate arrivals of one record. Machine.pooling therefore
// gates recycling of data messages: it is true only with reliability off
// and no lossy injector attached. Credit records (kindCredit) are
// internal, single-owner, and never enter an inbox, so they recycle
// unconditionally. Disabling recycling only costs allocations — the pool
// is a performance seam, never a correctness one.

// getMsg returns a zeroed message record owned by the caller, reusing a
// recycled one when available.
//
//repro:hotpath
func (m *Machine) getMsg() *message {
	if n := len(m.msgPool); n > 0 {
		msg := m.msgPool[n-1]
		m.msgPool[n-1] = nil
		m.msgPool = m.msgPool[:n-1]
		return msg
	}
	//lint:allow hotpathalloc pool-miss refill; steady state always hits the freelist above
	return &message{m: m}
}

// putMsg recycles a record whose current stage is done with it. The
// record is zeroed here (dropping handler, data, and header references)
// so the pool never extends the lifetime of caller state.
//
//repro:hotpath
func (m *Machine) putMsg(msg *message) {
	*msg = message{m: m}
	//lint:allow hotpathalloc amortized freelist growth; bounded by the in-flight high-water mark
	m.msgPool = append(m.msgPool, msg)
}

// updatePooling recomputes whether data-message records may be recycled
// at delivery; called whenever the reliability layer or the fault
// injector is attached or detached.
func (m *Machine) updatePooling() {
	m.pooling = m.rel == nil && (m.faults == nil || !m.faults.Lossy())
}

// deliverEvent is the arrival of one data message on a lossless wire (the
// reliability layer's arrival is relArriveEvent): a top-level
// sim.EventFn, so scheduling a delivery allocates nothing.
//
//repro:hotpath
func deliverEvent(arg any, at sim.Time) {
	msg := arg.(*message)
	msg.m.eps[msg.dst].deliver(msg, at)
}

// creditEvent is the firmware-level window-credit return: src gets one
// request credit toward dst back. The record is a pooled kindCredit
// message (src = requester, dst = responder) recycled in place.
//
//repro:hotpath
func creditEvent(arg any, at sim.Time) {
	msg := arg.(*message)
	m := msg.m
	requester := m.eps[msg.src]
	requester.outstanding.dec(msg.dst)
	requester.proc.WakeAt(at)
	m.putMsg(msg)
}
