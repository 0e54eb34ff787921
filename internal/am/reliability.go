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
// timeout with exponential backoff; the retransmission occupies the NIC
// transmit context but charges the host nothing.
type Reliability struct {
	// Enabled turns the protocol on.
	Enabled bool
	// RTO is the initial retransmission timeout, measured from injection.
	// Zero selects 2·(2L + g + G·FragmentSize) from the machine's
	// effective parameters — comfortably above one ack round trip even
	// for bulk fragments, so a lossless wire sees no spurious
	// retransmissions.
	RTO sim.Time
	// Backoff multiplies the timeout after each retransmission. Values
	// below 1 (including zero) select 2.
	Backoff float64
	// MaxRetries caps retransmissions per message; one past the cap the
	// run aborts with a *DeliveryError. Zero selects 12.
	MaxRetries int
}

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
	rto        sim.Time
	backoff    float64
	maxRetries int
}

// rtoAt returns the timeout armed for transmission number attempt (1-based).
func (rc *relConfig) rtoAt(attempt int) sim.Time {
	t := float64(rc.rto)
	for i := 1; i < attempt; i++ {
		t *= rc.backoff
	}
	return sim.Time(t)
}

// relEntry tracks one unacked message on its sender.
type relEntry struct {
	seq      int64
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
	rc := &relConfig{rto: cfg.RTO, backoff: cfg.Backoff, maxRetries: cfg.MaxRetries}
	if rc.rto <= 0 {
		p := &m.params
		rc.rto = 2 * (2*p.EffLatency() + p.EffGap() + p.BulkTime(p.FragmentSize))
	}
	if rc.backoff < 1 {
		rc.backoff = 2
	}
	if rc.maxRetries <= 0 {
		rc.maxRetries = 12
	}
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

// send sequences a freshly launched message and performs its first
// transmission. Called from launch with the transmit context already
// reserved (inject) and the nominal arrival computed.
func (r *relEndpoint) send(ep *Endpoint, msg *message, inject, arrival sim.Time) {
	st := &r.tx[msg.dst]
	st.nextSeq++
	msg.seq = st.nextSeq
	// Piggyback the cumulative ack for the reverse stream on every data
	// message; the value is frozen here and stays valid (acks are
	// cumulative, so a stale one is simply weaker).
	msg.ack = r.rx[msg.dst].expected - 1
	e := &relEntry{seq: msg.seq, msg: msg}
	st.unacked = append(st.unacked, e)
	r.transmit(ep, e, inject, arrival, false)
}

// transmit performs one physical transmission of an unacked entry and
// arms its retransmission timer.
func (r *relEndpoint) transmit(ep *Endpoint, e *relEntry, inject, arrival sim.Time, retrans bool) {
	e.attempts++
	deadline := inject + r.cfg.rtoAt(e.attempts)
	ep.m.eng.ScheduleAt(deadline, func() { r.timeout(ep, e, deadline) })
	ep.m.putOnWire(e.msg, inject, arrival, retrans)
}

// timeout fires when an armed retransmission timer expires. Stale timers
// (the entry was acked meanwhile) are no-ops; a live one either re-injects
// the message — NIC-initiated, so the transmit context is occupied but no
// host overhead is charged — or, past the retry cap, aborts the run.
func (r *relEndpoint) timeout(ep *Endpoint, e *relEntry, at sim.Time) {
	if e.acked {
		return
	}
	if e.attempts > r.cfg.maxRetries {
		ep.m.eng.Fail(&DeliveryError{Src: e.msg.src, Dst: e.msg.dst, Seq: e.seq, Attempts: e.attempts})
	}
	p := &ep.m.params
	msg := e.msg
	bulk := msg.kind == kindBulk || msg.kind == kindBulkReply
	inject := at
	if ep.txFreeAt > inject {
		inject = ep.txFreeAt
	}
	gapFree := inject + p.EffGap()
	busyFree := gapFree
	wire := p.EffLatency()
	if bulk {
		dma := p.BulkTime(len(msg.data))
		busyFree += dma
		wire += dma
	}
	ep.txFreeAt = busyFree
	ep.m.stats.Retransmits++
	if h := ep.m.hooks; h != nil {
		h.TxRetransmit(ep.ID(), inject, gapFree, busyFree)
	}
	r.transmit(ep, e, inject, inject+wire, true)
}

// arrive is the receiving NIC's protocol step for one transmission:
// apply the piggybacked ack, deduplicate, deliver in sequence order
// (draining any buffered successors), and emit a cumulative ack.
func (r *relEndpoint) arrive(dst *Endpoint, msg *message, at sim.Time) {
	m := dst.m
	if msg.ack > 0 {
		r.ackUpTo(msg.src, msg.ack)
	}
	rx := &r.rx[msg.src]
	switch {
	case msg.seq == rx.expected:
		rx.expected++
		r.accept(dst, msg, at)
		for {
			next, ok := rx.buf[rx.expected]
			if !ok {
				break
			}
			delete(rx.buf, rx.expected)
			rx.expected++
			r.accept(dst, next, at)
		}
	case msg.seq < rx.expected:
		// A duplicate of an already-delivered message (retransmission or
		// wire dup): discard at the NIC — the host never sees it — and
		// re-ack so the sender stops retransmitting.
		m.stats.DupsDiscarded++
	default:
		if rx.buf == nil {
			rx.buf = make(map[int64]*message)
		}
		if _, dup := rx.buf[msg.seq]; dup {
			m.stats.DupsDiscarded++
		} else {
			rx.buf[msg.seq] = msg
		}
	}
	// Firmware-level cumulative ack back to the sender (lossless control
	// channel, like window-credit returns).
	m.scheduleAck(msg.dst, msg.src, rx.expected-1, at)
}

// accept delivers one in-sequence message to the host-visible inbox.
func (r *relEndpoint) accept(dst *Endpoint, msg *message, at sim.Time) {
	msg.arrival = at
	if msg.kind == kindReply || msg.kind == kindBulkReply {
		dst.outstanding.dec(msg.src)
	}
	dst.pushInbox(msg)
	dst.proc.WakeAt(at)
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

// scheduleAck flies a firmware ack from receiver back to sender, covering
// the sender→receiver stream up to cum.
func (m *Machine) scheduleAck(receiver, sender int, cum int64, at sim.Time) {
	se := m.eps[sender]
	arrive := at + m.params.EffLatency()
	m.eng.ScheduleAt(arrive, func() { se.rel.ackUpTo(receiver, cum) })
}
