package am

import (
	"fmt"

	"repro/internal/sim"
)

// Reliability configures the optional AM-layer reliability protocol. With
// Enabled set, every message (requests and replies alike) carries a
// per-stream sequence number; the receiving NIC deduplicates, resequences
// out-of-order arrivals, and acknowledges with a cumulative ack — both
// piggybacked on every data message flowing the other way and as a
// firmware-level ack packet per delivery (lossless and host-cost-free,
// like window-credit returns; see DESIGN.md §9 for why the control
// channel may assume a reliable wire). Unacked messages retransmit on a
// timeout with exponential backoff (relBackoff, up to relMaxRetries
// times); the retransmission occupies the NIC transmit context but
// charges the host nothing.
type Reliability struct {
	// Enabled turns the protocol on.
	Enabled bool
}

const (
	// relBackoff multiplies the retransmission timeout after each
	// retransmission.
	relBackoff = 2
	// relMaxRetries caps retransmissions per message; one past the cap
	// the run aborts with a *DeliveryError.
	relMaxRetries = 12
)

// DeliveryError reports a message that exhausted its retransmission
// budget. sim.Engine.Run returns it wrapped in the run-failure error
// chain; match with errors.As.
type DeliveryError struct {
	// Src and Dst identify the stream.
	Src, Dst int
	// Seq is the undeliverable message's sequence number.
	Seq int64
	// Attempts is the number of transmissions performed.
	Attempts int
}

func (e *DeliveryError) Error() string {
	return fmt.Sprintf("am: message %d→%d seq %d undeliverable after %d transmissions",
		e.Src, e.Dst, e.Seq, e.Attempts)
}

// relConfig is the machine-wide resolved protocol configuration.
type relConfig struct {
	// rto is the initial retransmission timeout, measured from
	// injection: 2·(2L + g + G·FragmentSize) from the machine's effective
	// parameters — comfortably above one ack round trip even for bulk
	// fragments, so a lossless wire sees no spurious retransmissions.
	rto sim.Time
}

// rtoAt returns the timeout armed for transmission number attempt (1-based).
func (rc *relConfig) rtoAt(attempt int) sim.Time {
	t := float64(rc.rto)
	for i := 1; i < attempt; i++ {
		t *= relBackoff
	}
	return sim.Time(t)
}

// relEntry tracks one unacked message on its sender, and is the
// message's reliability header (message.rel): seq is its position in the
// src→dst stream (1-based), and ack piggybacks the sender's cumulative
// ack for the reverse dst→src stream (0 means none).
type relEntry struct {
	seq      int64
	ack      int64
	msg      *message
	attempts int
	acked    bool
}

// relStream is the sender side of one src→dst stream.
type relStream struct {
	nextSeq int64
	unacked []*relEntry // ascending seq
}

// relRecv is the receiver side of one src→dst stream.
type relRecv struct {
	expected int64              // next in-order sequence number (1-based)
	buf      map[int64]*message // out-of-order arrivals awaiting the gap
}

// relEndpoint is one endpoint's protocol state: a sender stream per
// destination and a receiver stream per source.
type relEndpoint struct {
	cfg *relConfig
	tx  []relStream
	rx  []relRecv
}

// SetReliability configures the reliability protocol on every endpoint
// (Enabled false tears it down). Attach before the run starts; the
// protocol changes message timing even on a lossless wire (credits are
// unchanged, but delivery passes through the resequencer), so enable it
// only for runs that measure it.
func (m *Machine) SetReliability(cfg Reliability) {
	if !cfg.Enabled {
		m.rel = nil
		for _, ep := range m.eps {
			ep.rel = nil
		}
		m.updatePooling()
		return
	}
	p := &m.params
	rc := &relConfig{rto: 2 * (2*p.EffLatency() + p.EffGap() + p.BulkTime(p.FragmentSize))}
	m.rel = rc
	// Retransmission and resequencing keep references to message records
	// past delivery, so delivery-time recycling must be off (see pool.go).
	m.updatePooling()
	for _, ep := range m.eps {
		r := &relEndpoint{cfg: rc, tx: make([]relStream, m.P()), rx: make([]relRecv, m.P())}
		for i := range r.rx {
			r.rx[i].expected = 1
		}
		ep.rel = r
	}
}

// Reliable reports whether the reliability protocol is enabled.
func (m *Machine) Reliable() bool { return m.rel != nil }

// send sequences a freshly committed message and performs its first
// transmission. Called from Endpoint.commit with the transmit context
// already reserved (inject) and the nominal arrival computed.
func (r *relEndpoint) send(ep *Endpoint, msg *message, inject, arrival sim.Time) {
	st := &r.tx[msg.dst]
	st.nextSeq++
	// Piggyback the cumulative ack for the reverse stream on every data
	// message; the value is frozen here and stays valid (acks are
	// cumulative, so a stale one is simply weaker).
	e := &relEntry{seq: st.nextSeq, ack: r.rx[msg.dst].expected - 1, msg: msg}
	msg.rel = e
	st.unacked = append(st.unacked, e)
	r.transmit(ep, e, inject, arrival, false)
}

// transmit performs one physical transmission of an unacked entry and
// arms its retransmission timer.
func (r *relEndpoint) transmit(ep *Endpoint, e *relEntry, inject, arrival sim.Time, retrans bool) {
	e.attempts++
	ep.m.eng.ScheduleCall(inject+r.cfg.rtoAt(e.attempts), relTimeoutEvent, e)
	ep.m.putOnWire(e.msg, arrival, retrans)
}

// relTimeoutEvent fires when an entry's armed retransmission timer
// expires. Stale timers (the entry was acked meanwhile) are no-ops; a
// live one either re-injects the message — NIC-initiated, so the
// transmit context is occupied but no host overhead is charged — or,
// past the retry cap, aborts the run.
func relTimeoutEvent(arg any, at sim.Time) {
	e := arg.(*relEntry)
	if e.acked {
		return
	}
	ep := e.msg.m.eps[e.msg.src]
	if e.attempts > relMaxRetries {
		ep.m.eng.Fail(&DeliveryError{Src: e.msg.src, Dst: e.msg.dst, Seq: e.seq, Attempts: e.attempts})
	}
	ep.m.stats.Retransmits++
	inject, _, arrival := ep.reserveTx(e.msg, at, true)
	ep.rel.transmit(ep, e, inject, arrival, true)
}

// relArriveEvent is the receiving NIC's protocol step for one
// transmission: apply the piggybacked ack, deduplicate, deliver in
// sequence order (draining any buffered successors), and emit a
// cumulative ack.
func relArriveEvent(arg any, at sim.Time) {
	msg := arg.(*message)
	m := msg.m
	dst := m.eps[msg.dst]
	r := dst.rel
	seq := msg.rel.seq
	if ack := msg.rel.ack; ack > 0 {
		r.ackUpTo(msg.src, ack)
	}
	rx := &r.rx[msg.src]
	switch {
	case seq == rx.expected:
		rx.expected++
		dst.deliver(msg, at)
		for {
			next, ok := rx.buf[rx.expected]
			if !ok {
				break
			}
			delete(rx.buf, rx.expected)
			rx.expected++
			dst.deliver(next, at)
		}
	case seq < rx.expected:
		// A duplicate of an already-delivered message (retransmission or
		// wire dup): discard at the NIC — the host never sees it — and
		// re-ack so the sender stops retransmitting.
		m.stats.DupsDiscarded++
	default:
		if rx.buf == nil {
			rx.buf = make(map[int64]*message)
		}
		if _, dup := rx.buf[seq]; dup {
			m.stats.DupsDiscarded++
		} else {
			rx.buf[seq] = msg
		}
	}
	// Firmware-level cumulative ack back to the sender (lossless control
	// channel, like window-credit returns), one wire latency later.
	m.eng.ScheduleCall(at+m.params.EffLatency(), relAckEvent,
		&relAck{sender: m.eps[msg.src].rel, receiver: msg.dst, cum: rx.expected - 1})
}

// relAck is a firmware ack in flight: on arrival it retires the sender's
// unacked entries toward receiver up to cum.
type relAck struct {
	sender   *relEndpoint
	receiver int
	cum      int64
}

// relAckEvent lands a firmware ack at its sender.
func relAckEvent(arg any, _ sim.Time) {
	a := arg.(*relAck)
	a.sender.ackUpTo(a.receiver, a.cum)
}

// ackUpTo retires every unacked entry with seq ≤ cum on this endpoint's
// stream toward dst. Acks change no host-visible state, so no wakeup.
func (r *relEndpoint) ackUpTo(dst int, cum int64) {
	st := &r.tx[dst]
	i := 0
	for i < len(st.unacked) && st.unacked[i].seq <= cum {
		st.unacked[i].acked = true
		i++
	}
	if i > 0 {
		st.unacked = append(st.unacked[:0], st.unacked[i:]...)
	}
}
