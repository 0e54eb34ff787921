// Package am implements the paper's communication substrate: a Generic
// Active Messages (GAM) style layer whose LogGP characteristics — overhead,
// gap, latency, and bulk bandwidth — can be varied independently, exactly
// as §3.2 of the paper describes for the Berkeley NOW's LANai firmware.
//
// Model summary (short message from i to j):
//
//	host i : stall Δo, write message into NIC        — charge o_send+Δo
//	NIC i  : inject at max(now, txFreeAt)            — txFreeAt += g+Δg
//	wire   : presence bit set at inject + L + ΔL     — the delay queue
//	host j : at its next poll, read message, run the
//	         handler                                 — charge o_recv+Δo
//
// Bulk fragments (≤ FragmentSize bytes) additionally occupy the transmit
// path for G·size (the DMA rate / bulk-bandwidth knob) and arrive G·size
// later. The layer enforces a fixed window of outstanding requests per
// destination: a processor that would exceed it stalls, spin-polling the
// network, until a reply or firmware-level ack returns a credit — the
// paper's capacity constraint that is deliberately independent of L.
//
// As in GAM, request handlers run at poll points on the receiving
// processor (never asynchronously), may send at most one reply, and must
// not block; replies are exempt from the window so the layer is
// deadlock-free.
//
// Instrumentation attaches through the Hooks interface (embed NopHooks,
// attach with Machine.SetHooks or splitc.World.Attach): every message
// event, overhead charge, transmit-context reservation, and wait span is
// reported through it, and hooks that also implement ClockHooks see every
// raw clock advance — the invariant behind internal/prof's conservation
// proof.
//
// The wire is lossless by default. A FaultInjector (Machine.SetFaults;
// implemented by internal/fault) can drop, duplicate, or delay individual
// transmissions and stretch processor charges; on top of a lossy wire the
// optional reliability layer (Machine.SetReliability) adds per-stream
// sequence numbers, receiver-side dedup and resequencing, cumulative acks
// piggybacked on every data message plus firmware-level ack packets, and
// timeout-driven retransmission with exponential backoff — a message that
// exhausts its retry cap aborts the run with a typed *DeliveryError.
package am

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/logp"
	"repro/internal/sim"
)

// SmallWireBytes is the wire footprint of a short active message (header +
// four 64-bit payload words), used for the paper's "small message KB/s"
// accounting in Table 4.
const SmallWireBytes = 28

// Class tags a message's role for Table 4 accounting.
type Class uint8

const (
	// ClassWrite marks data-moving one-way traffic (remote stores).
	ClassWrite Class = iota
	// ClassRead marks read requests and their replies.
	ClassRead
	// ClassSync marks synchronization traffic (barriers, locks).
	ClassSync
)

// Args is the payload of a short active message: four 64-bit words, the
// GAM short-message format.
type Args [4]uint64

// Handler processes a short active message on the receiving processor.
// Handlers run at poll points, may call ep.Reply at most once when handling
// a request, and must not block, poll, or send new requests.
type Handler func(ep *Endpoint, tok *Token, args Args)

// BulkHandler processes an arrived bulk fragment. The data slice is owned
// by the receiver.
type BulkHandler func(ep *Endpoint, tok *Token, args Args, data []byte)

// Token identifies the message being handled and carries reply plumbing.
type Token struct {
	// Src is the sending processor.
	Src int
	// Class is the sender's traffic classification.
	Class Class
	// IsReply reports whether this message is a reply.
	IsReply bool

	replied bool
	dst     int
}

type msgKind uint8

const (
	kindRequest msgKind = iota
	kindReply
	kindBulk
	kindBulkReply
	// kindCredit is a firmware-level window-credit return riding a pooled
	// record through the event queue; it never enters an inbox and no
	// host overhead is charged for it.
	kindCredit
)

type message struct {
	m       *Machine // owning machine, for pool recycling and event dispatch
	kind    msgKind
	src     int
	dst     int
	class   Class
	arrival sim.Time
	handler Handler
	bulkH   BulkHandler
	args    Args
	data    []byte

	// Reliability-layer header, populated only when the layer is enabled:
	// seq is the message's position in the src→dst stream (1-based; 0
	// means unsequenced), ack piggybacks the sender's cumulative ack for
	// the reverse dst→src stream (0 means none).
	seq int64
	ack int64
}

// Machine couples a simulation engine with a communication fabric: one
// Endpoint (host interface + NIC) per processor, a shared LogGP parameter
// set, and shared instrumentation.
type Machine struct {
	eng    *sim.Engine
	params logp.Params
	eps    []*Endpoint
	stats  *Stats
	hooks  Hooks
	// wire is the cached WireHooks downcast of hooks, resolved once in
	// SetHooks so the per-message wire events need no type assertion on
	// the hot path (nil when hooks does not implement WireHooks).
	wire WireHooks

	// faults, when set, is consulted for every physical wire transmission
	// and every explicit processor charge (see SetFaults).
	faults FaultInjector
	// rel holds the reliability-protocol configuration; nil = lossless
	// wire assumed, no sequencing (see SetReliability).
	rel *relConfig

	// msgPool is the freelist of recycled message records and pooling
	// the gate on recycling data messages at delivery (see pool.go).
	msgPool []*message
	pooling bool

	// cpuFactor scales local computation speed: 2.0 halves every Compute
	// charge (a processor twice as fast), leaving communication costs
	// untouched — the §5.5 processor-vs-network tradeoff knob.
	cpuFactor float64
}

// NewMachine builds the fabric for every processor of eng.
func NewMachine(eng *sim.Engine, params logp.Params) (*Machine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{eng: eng, params: params, stats: newStats(eng.P()), cpuFactor: 1, pooling: true}
	m.eps = make([]*Endpoint, eng.P())
	for i := range m.eps {
		m.eps[i] = &Endpoint{
			m:           m,
			proc:        eng.Proc(i),
			outstanding: newWinCounts(eng.P()),
		}
		m.eps[i].pw.ep = m.eps[i]
	}
	return m, nil
}

// MustMachine is NewMachine for known-good parameters.
func MustMachine(eng *sim.Engine, params logp.Params) *Machine {
	m, err := NewMachine(eng, params)
	if err != nil {
		panic(err)
	}
	return m
}

// Params returns the machine's LogGP parameter set.
func (m *Machine) Params() logp.Params { return m.params }

// P returns the processor count.
func (m *Machine) P() int { return len(m.eps) }

// Endpoint returns processor i's communication endpoint.
func (m *Machine) Endpoint(i int) *Endpoint { return m.eps[i] }

// Stats returns the machine-wide instrumentation.
func (m *Machine) Stats() *Stats { return m.stats }

// SetHooks attaches the machine's instrumentation (nil detaches). When h
// also implements ClockHooks, every processor's raw clock advances are
// forwarded to it as well. Attach before the run starts: the profiler's
// conservation proof needs to see time zero onward.
func (m *Machine) SetHooks(h Hooks) {
	m.hooks = h
	m.wire, _ = h.(WireHooks)
	ch, _ := h.(ClockHooks)
	for i, ep := range m.eps {
		if ch == nil {
			ep.proc.SetClockHook(nil)
			continue
		}
		id := i
		ep.proc.SetClockHook(func(kind sim.ClockKind, from, to sim.Time) {
			ch.ClockAdvanced(id, kind, from, to)
		})
	}
}

// Hooks returns the attached instrumentation (nil when detached).
func (m *Machine) Hooks() Hooks { return m.hooks }

// SetCPUFactor makes every processor's local computation f× faster
// (Compute charges are divided by f). Communication overheads are NOT
// scaled: the network interface limits them, which is exactly the
// asymmetry behind the paper's §5.5 tradeoff observation.
func (m *Machine) SetCPUFactor(f float64) {
	if f <= 0 {
		panic("am: CPU factor must be positive")
	}
	m.cpuFactor = f
}

// CPUFactor reports the current compute-speed factor.
func (m *Machine) CPUFactor() float64 { return m.cpuFactor }

// Endpoint is one processor's interface to the network. All methods must be
// called from the owning processor's goroutine (handlers included).
type Endpoint struct {
	m    *Machine
	proc *sim.Proc

	// txFreeAt is the earliest time the NIC transmit context can inject
	// the next message (the gap / bulk-Gap bottleneck).
	txFreeAt sim.Time
	// inbox holds delivered-but-unpolled messages, sorted by arrival time
	// (deliveries are scheduled events, which execute in time order).
	// head indexes the first live element; the queue compacts lazily.
	inbox     []*message
	inboxHead int
	// outstanding counts un-acked requests per destination (window),
	// dense below denseWinMaxP and sparse above it (see window.go).
	outstanding winCounts
	// inHandler guards against illegal nested polling from handlers.
	inHandler bool
	// tok is the scratch Token handed to handlers, reused across
	// deliveries: handlers Reply during the invocation and never retain
	// the token past it (the GAM contract), and handlers cannot nest
	// (inHandler forbids polling), so one per endpoint suffices.
	tok Token
	// pw is the endpoint's reusable pollable-wait record (see epWait):
	// waits cannot nest (one body, and handlers may not wait), so one per
	// endpoint suffices and parking allocates nothing.
	pw epWait
	// rel is this endpoint's reliability-protocol state; nil when the
	// layer is off (see Machine.SetReliability).
	rel *relEndpoint
}

// epWait expresses an endpoint's spin-poll wait loop as a
// sim.PollableWait, the record the engine iterates on the waiter's
// behalf: blocking operations hand it to sim.Proc.Await, continuation
// bodies return it from Resume (see cont.go). Four modes, chosen to keep
// the steady-state paths closure-free:
//
//   - waitModeWindow: a window stall on dst, ready when a request credit
//     toward dst is free (the send path's stall).
//   - waitModeCond: a WaitUntilFor condition closure.
//   - waitModeCounter: ready when *ctr >= target — the closure-free form
//     continuation primitives use for replies, barrier rounds, and
//     collective operands (cumulative counters, so no reset races).
//   - waitModeQuiesce: ready when every outstanding request is acked
//     (store sync).
type epWait struct {
	ep     *Endpoint
	mode   waitMode
	cond   func() bool
	ctr    *int64
	target int64
	dst    int
	win    int
	reason string
}

type waitMode uint8

const (
	waitModeWindow waitMode = iota
	waitModeCond
	waitModeCounter
	waitModeQuiesce
)

// set re-points the endpoint's reusable wait record at a new wait. Waits
// never nest (one body, and handlers may not wait), so reuse is safe in
// both runtime modes.
func (w *epWait) set(mode waitMode, cond func() bool, ctr *int64, target int64, dst, win int, reason string) *epWait {
	w.mode, w.cond, w.ctr, w.target, w.dst, w.win, w.reason = mode, cond, ctr, target, dst, win, reason
	return w
}

func (w *epWait) Ready(_ *sim.Proc) bool {
	switch w.mode {
	case waitModeCond:
		return w.cond()
	case waitModeCounter:
		return *w.ctr >= w.target
	case waitModeQuiesce:
		return w.ep.outstanding.total == 0
	default:
		return w.ep.outstanding.get(w.dst) < w.win
	}
}

// WaitReason labels the wait in deadlock diagnostics (sim.WaitReasoner).
func (w *epWait) WaitReason() string {
	if w.reason != "" {
		return w.reason
	}
	return "am: endpoint wait"
}

func (w *epWait) PollOne(_ *sim.Proc) bool { return w.ep.pollOne() }

func (w *epWait) NextWork(_ *sim.Proc) (sim.Time, bool) {
	if next := w.ep.peekInbox(); next != nil {
		return next.arrival, true
	}
	return 0, false
}

// Proc returns the simulated processor that owns this endpoint.
func (ep *Endpoint) Proc() *sim.Proc { return ep.proc }

// Machine returns the owning machine.
func (ep *Endpoint) Machine() *Machine { return ep.m }

// ID returns the owning processor's id.
func (ep *Endpoint) ID() int { return ep.proc.ID() }

// P returns the machine's processor count.
func (ep *Endpoint) P() int { return len(ep.m.eps) }

// Now returns the owning processor's virtual clock.
func (ep *Endpoint) Now() sim.Time { return ep.proc.Clock() }

// ErrComputeOverflow fails a run whose CPU factor scales a compute charge
// past what the virtual clock can hold.
var ErrComputeOverflow = errors.New("am: scaled compute charge overflows the virtual clock")

// Compute charges d of local computation, scaled by the machine's CPU
// factor. A scaled charge that does not fit the processor's clock fails
// the run with ErrComputeOverflow.
func (ep *Endpoint) Compute(d sim.Time) {
	if f := ep.m.cpuFactor; f != 1 {
		scaled := float64(d)/f + 0.5
		// 2^63 is the first float64 past the int64 range; !(x < y) also
		// catches NaN.
		if !(scaled < 1<<63) || sim.Time(scaled) > math.MaxInt64-ep.proc.Clock() {
			ep.m.eng.Fail(fmt.Errorf("%w: %v at CPU factor %g on proc %d at %v",
				ErrComputeOverflow, d, f, ep.ID(), ep.proc.Clock()))
		}
		d = sim.Time(scaled)
	}
	from := ep.proc.Clock()
	ep.proc.Advance(d)
	if h := ep.m.hooks; h != nil && d > 0 {
		// Report the base charge only: a fault-injected stretch extends
		// the clock past from+d and is reported as ClockStretch instead.
		h.ComputeCharged(ep.ID(), from, from+d)
	}
}

func (ep *Endpoint) params() *logp.Params { return &ep.m.params }

// checkSendContext panics on illegal sends from handler context.
func (ep *Endpoint) checkRequestContext(op string) {
	if ep.inHandler {
		panic(fmt.Sprintf("am: %s called from a message handler on proc %d; handlers may only Reply", op, ep.ID()))
	}
}

// Request sends a short active message to dst and returns once the host
// processor has handed it to the NIC (the message itself is in flight).
// It stalls first, spin-polling, if the outstanding-request window to dst
// is full. It is the blocking assembly of the three continuation pieces
// in cont.go — poll, window wait, commit — so the blocking and resumable
// send paths are one implementation.
//
//repro:hotpath
func (ep *Endpoint) Request(dst int, class Class, h Handler, args Args) {
	ep.checkRequestContext("Request")
	// GAM polls the network on every request: senders service arrivals.
	ep.Poll()
	ep.waitWindow(dst)
	ep.SendRequest(dst, class, h, args)
}

// Reply answers the request identified by tok with a short active message.
// Replies bypass the window (they can always be injected) and are legal
// from handler context; each request may be answered at most once.
//
//repro:hotpath
func (ep *Endpoint) Reply(tok *Token, h Handler, args Args) {
	if tok == nil || tok.IsReply {
		panic("am: Reply requires a request token")
	}
	if tok.replied {
		panic("am: duplicate Reply to one request")
	}
	if h == nil {
		panic("am: Reply with nil handler")
	}
	tok.replied = true
	ep.chargeSend()
	msg := ep.m.getMsg()
	msg.kind, msg.src, msg.dst, msg.class, msg.handler, msg.args = kindReply, ep.ID(), tok.Src, tok.Class, h, args
	ep.m.stats.countSendAt(ep.ID(), tok.Src, tok.Class, false, 0, ep.proc.Clock())
	ep.launch(msg)
}

// Store sends one bulk fragment (≤ FragmentSize bytes) to dst, invoking h
// on the receiver when the DMA completes. The data is copied at send time.
// Store counts as one bulk message (the paper's "Active Message bulk
// transfer mechanism"); larger transfers are loops of Stores — see
// StoreLarge. Like Request, it is poll + window wait + the SendStore
// commit.
//
//repro:hotpath
func (ep *Endpoint) Store(dst int, class Class, h BulkHandler, args Args, data []byte) {
	ep.checkRequestContext("Store")
	// GAM polls the network on every request: senders service arrivals.
	ep.Poll()
	ep.waitWindow(dst)
	ep.SendStore(dst, class, h, args, data)
}

// ReplyBulk answers the request identified by tok with one bulk fragment —
// the mechanism behind bulk gets: a short read request whose reply is a
// DMA transfer. Like short replies it bypasses the window (the requester's
// own window already bounds it) and is legal from handler context.
// ReplyBulk takes ownership of data: the slice itself travels and is
// handed to h on the requester, so the caller builds it for this reply and
// does not touch it again (Store, whose callers send from live memory,
// copies instead).
func (ep *Endpoint) ReplyBulk(tok *Token, h BulkHandler, args Args, data []byte) {
	if tok == nil || tok.IsReply {
		panic("am: ReplyBulk requires a request token")
	}
	if tok.replied {
		panic("am: duplicate Reply to one request")
	}
	if h == nil {
		panic("am: ReplyBulk with nil handler")
	}
	p := ep.params()
	if len(data) > p.FragmentSize {
		panic(fmt.Sprintf("am: ReplyBulk of %d bytes exceeds fragment size %d", len(data), p.FragmentSize))
	}
	tok.replied = true
	msg := ep.m.getMsg()
	msg.kind, msg.src, msg.dst, msg.class, msg.bulkH, msg.args, msg.data = kindBulkReply, ep.ID(), tok.Src, tok.Class, h, args, data
	ep.chargeSend()
	ep.m.stats.countSendAt(ep.ID(), tok.Src, tok.Class, true, len(data), ep.proc.Clock())
	ep.launch(msg)
}

// StoreLarge splits data into fragments and Stores each; h runs on the
// receiver once per fragment with args[3] overridden to hold the byte
// offset of the fragment, so receivers can reassemble.
func (ep *Endpoint) StoreLarge(dst int, class Class, h BulkHandler, args Args, data []byte) {
	frag := ep.params().FragmentSize
	for off := 0; off < len(data); off += frag {
		end := off + frag
		if end > len(data) {
			end = len(data)
		}
		a := args
		a[3] = uint64(off)
		ep.Store(dst, class, h, a, data[off:end])
	}
}

// waitWindow stalls, spin-polling, until a request credit to dst is free.
// Window stalls are part of the steady-state send path, so the wait is
// the closure-free WindowWait record.
//
//repro:hotpath
func (ep *Endpoint) waitWindow(dst int) {
	if ep.CanSend(dst) {
		return
	}
	ep.MarkWaitBegin(WaitWindow)
	ep.proc.Await(ep.WindowWait(dst))
	ep.MarkWaitEnd(WaitWindow)
}

// chargeSend charges the host-side send overhead (o_send plus the
// experiment's added overhead).
//
//repro:hotpath
func (ep *Endpoint) chargeSend() {
	from := ep.proc.Clock()
	o := ep.params().EffOSend()
	ep.proc.Advance(o)
	if h := ep.m.hooks; h != nil {
		h.SendOverhead(ep.ID(), from, from+o)
	}
}

// injectShort reserves the NIC transmit context for a short message and
// returns the injection time.
//
//repro:hotpath
func (ep *Endpoint) injectShort() sim.Time {
	p := ep.params()
	inject := ep.proc.Clock()
	if ep.txFreeAt > inject {
		inject = ep.txFreeAt
	}
	ep.txFreeAt = inject + p.EffGap()
	if h := ep.m.hooks; h != nil {
		h.TxReserved(ep.ID(), inject, ep.txFreeAt, ep.txFreeAt)
	}
	return inject
}

// injectBulk reserves the NIC transmit context for a bulk fragment: after
// injection the transmit context stalls for the fragment's DMA time
// (G·size) in addition to the gap — the paper's bulk-Gap knob. The receive
// context is unaffected (the LANai's dual hardware contexts).
//
//repro:hotpath
func (ep *Endpoint) injectBulk(n int) sim.Time {
	p := ep.params()
	inject := ep.proc.Clock()
	if ep.txFreeAt > inject {
		inject = ep.txFreeAt
	}
	ep.txFreeAt = inject + p.EffGap() + p.BulkTime(n)
	if h := ep.m.hooks; h != nil {
		h.TxReserved(ep.ID(), inject, inject+p.EffGap(), ep.txFreeAt)
	}
	return inject
}

// launch puts msg on the wire for the first time: it reserves the NIC
// transmit context, computes the nominal arrival instant, and hands the
// message either to the reliability layer (which sequences and registers
// it for retransmission) or directly to the wire. Every host-initiated
// send — short or bulk, request or reply — passes through here exactly
// once; retransmissions re-enter at putOnWire.
//
//repro:hotpath
func (ep *Endpoint) launch(msg *message) {
	p := ep.params()
	bulk := msg.kind == kindBulk || msg.kind == kindBulkReply
	var inject sim.Time
	wire := p.EffLatency()
	if bulk {
		inject = ep.injectBulk(len(msg.data))
		wire += p.BulkTime(len(msg.data))
	} else {
		inject = ep.injectShort()
	}
	if ep.m.hooks != nil {
		ep.m.hooks.MessageSent(msg.src, msg.dst, msg.class, bulk, ep.proc.Clock())
	}
	if wh := ep.m.wire; wh != nil {
		reply := msg.kind == kindReply || msg.kind == kindBulkReply
		wh.MessageLaunched(msg.src, msg.dst, reply, bulk, inject, inject+wire)
	}
	if r := ep.rel; r != nil {
		r.send(ep, msg, inject, inject+wire)
		return
	}
	ep.m.putOnWire(msg, inject, inject+wire, false)
}

// putOnWire performs one physical transmission of msg: the fault injector
// (if any) may drop it, duplicate it, or add wire delay; whatever survives
// is scheduled to arrive. retrans marks reliability-layer retransmissions.
//
//repro:hotpath
func (m *Machine) putOnWire(msg *message, inject, arrival sim.Time, retrans bool) {
	if f := m.faults; f != nil {
		bulk := msg.kind == kindBulk || msg.kind == kindBulkReply
		act := f.OnWire(WireMsg{
			Src:        msg.src,
			Dst:        msg.dst,
			Class:      msg.class,
			Bulk:       bulk,
			Reply:      msg.kind == kindReply || msg.kind == kindBulkReply,
			Retransmit: retrans,
			Seq:        msg.seq,
		}, inject)
		if act.ExtraLatency > 0 {
			arrival += act.ExtraLatency
		}
		if act.Drop {
			m.stats.WireDrops++
			return
		}
		if act.Duplicate {
			m.stats.WireDups++
			m.scheduleArrival(msg, arrival)
		}
	}
	m.scheduleArrival(msg, arrival)
}

// scheduleArrival registers msg's arrival at its destination NIC. With
// the reliability layer off, a reply frees its window credit at arrival
// (the NIC manages credits, so the host need not have polled yet); with
// it on, the receiving NIC's protocol state decides what to deliver.
//
//repro:hotpath
func (m *Machine) scheduleArrival(msg *message, at sim.Time) {
	dst := m.eps[msg.dst]
	if dst.rel != nil {
		//lint:allow hotpathalloc reliability-layer arrival closure; pooling is off with the layer on, the lossless path below is the zero-alloc one
		m.eng.ScheduleAt(at, func() { dst.rel.arrive(dst, msg, at) })
		return
	}
	m.eng.ScheduleCall(at, deliverEvent, msg)
}

// returnCredit schedules the firmware-level ack that frees one window slot
// at the requester. It costs the hosts nothing (the LANai handles it) and,
// like replies, bypasses the transmit gap (acks piggyback). The credit
// rides a pooled record through the zero-alloc event path.
//
//repro:hotpath
func (m *Machine) returnCredit(requester, responder int, at sim.Time) {
	if wh := m.wire; wh != nil {
		wh.CreditIssued(requester, responder, at)
	}
	msg := m.getMsg()
	msg.kind, msg.src, msg.dst = kindCredit, requester, responder
	m.eng.ScheduleCall(at+m.params.EffLatency(), creditEvent, msg)
}

// pushInbox appends an arrived message, compacting consumed space first
// when it dominates the queue.
//
//repro:hotpath
func (ep *Endpoint) pushInbox(msg *message) {
	if ep.inboxHead > 64 && ep.inboxHead*2 > len(ep.inbox) {
		n := copy(ep.inbox, ep.inbox[ep.inboxHead:])
		for i := n; i < len(ep.inbox); i++ {
			ep.inbox[i] = nil
		}
		ep.inbox = ep.inbox[:n]
		ep.inboxHead = 0
	}
	//lint:allow hotpathalloc amortized inbox growth; the slice reaches its high-water mark during warmup
	ep.inbox = append(ep.inbox, msg)
}

// peekInbox returns the oldest unpolled message, or nil.
//
//repro:hotpath
func (ep *Endpoint) peekInbox() *message {
	if ep.inboxHead >= len(ep.inbox) {
		return nil
	}
	return ep.inbox[ep.inboxHead]
}

//repro:hotpath
func (ep *Endpoint) popInbox() *message {
	msg := ep.inbox[ep.inboxHead]
	ep.inbox[ep.inboxHead] = nil
	ep.inboxHead++
	if ep.inboxHead == len(ep.inbox) {
		ep.inbox = ep.inbox[:0]
		ep.inboxHead = 0
	}
	return msg
}

// Poll processes every message that has arrived by the processor's current
// time, charging o_recv (plus added overhead) per message and running its
// handler. Poll is a scheduler checkpoint: one before the inbox is first
// inspected and one after every serviced arrival.
//
//repro:hotpath
func (ep *Endpoint) Poll() {
	if ep.inHandler {
		panic("am: Poll called from a message handler")
	}
	ep.proc.Checkpoint()
	for ep.PollOneDue() {
		ep.proc.Checkpoint()
	}
}

// process consumes one arrived message on the host. It is the record's
// final stage: once the handler and the instrumentation have run, the
// record is recycled — unless the reliability layer or a lossy fault
// injector may still hold references to it (see pool.go).
//
//repro:hotpath
func (ep *Endpoint) process(msg *message) {
	from := ep.proc.Clock()
	o := ep.params().EffORecv()
	ep.proc.Advance(o)
	if h := ep.m.hooks; h != nil {
		h.RecvOverhead(ep.ID(), from, from+o)
	}
	tok := &ep.tok
	*tok = Token{Src: msg.src, Class: msg.class, IsReply: msg.kind == kindReply, dst: msg.dst}
	ep.inHandler = true
	switch msg.kind {
	case kindRequest:
		msg.handler(ep, tok, msg.args)
		if !tok.replied {
			// The handler sent no reply; the firmware returns the window
			// credit on its own.
			ep.m.returnCredit(msg.src, msg.dst, ep.proc.Clock())
		}
	case kindReply:
		// The window credit was already freed at arrival by the NIC.
		msg.handler(ep, tok, msg.args)
	case kindBulk:
		msg.bulkH(ep, tok, msg.args, msg.data)
		if !tok.replied {
			ep.m.returnCredit(msg.src, msg.dst, ep.proc.Clock())
		}
	case kindBulkReply:
		// The window credit was already freed at arrival by the NIC.
		msg.bulkH(ep, tok, msg.args, msg.data)
	default:
		panic("am: unknown message kind")
	}
	ep.inHandler = false
	if h := ep.m.hooks; h != nil {
		bulk := msg.kind == kindBulk || msg.kind == kindBulkReply
		h.MessageHandled(msg.src, msg.dst, msg.class, bulk, ep.proc.Clock())
	}
	if ep.m.pooling {
		ep.m.putMsg(msg)
	}
}

// TotalOutstanding reports the number of un-acked requests across all
// destinations; zero means every store this processor issued has been
// applied at its destination. O(1): the window counts carry their total.
func (ep *Endpoint) TotalOutstanding() int {
	return int(ep.outstanding.total)
}

// pollOne processes at most one due message, reporting whether it did.
//
//repro:hotpath
func (ep *Endpoint) pollOne() bool {
	msg := ep.peekInbox()
	if msg == nil || msg.arrival > ep.proc.Clock() {
		return false
	}
	ep.popInbox()
	ep.process(msg)
	return true
}

// WaitUntil spin-polls the network until cond holds. This is how a blocked
// processor behaves on the real machine: while waiting it keeps servicing
// incoming messages (paying o_recv for each), re-checking the condition
// between handler invocations — one message at a time, so a saturated
// inbox cannot postpone a condition that is already true. The reason
// string appears in deadlock diagnostics. The wait is reported to the
// hooks as WaitData; layers that know better use WaitUntilFor.
func (ep *Endpoint) WaitUntil(cond func() bool, reason string) {
	ep.WaitUntilFor(WaitData, cond, reason)
}

// WaitUntilFor is WaitUntil with an explicit wait classification for the
// instrumentation hooks.
func (ep *Endpoint) WaitUntilFor(kind WaitKind, cond func() bool, reason string) {
	if ep.inHandler {
		panic("am: WaitUntil called from a message handler")
	}
	ep.MarkWaitBegin(kind)
	ep.proc.Await(ep.CondWait(cond, reason))
	ep.pw.cond = nil // do not keep the caller's closure alive past the wait
	ep.MarkWaitEnd(kind)
}

// Outstanding reports the in-flight request count toward dst (tests).
func (ep *Endpoint) Outstanding(dst int) int { return ep.outstanding.get(dst) }
