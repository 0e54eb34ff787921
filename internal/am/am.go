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
// attach with Machine.SetHooks or splitc.World.Attach): every send,
// receive, charge, wait, synchronization region and unnamed clock
// advance is reported once to each attached value in attach order — the
// charges and clock advances tiling each timeline are the invariant
// behind internal/prof's conservation proof.
//
// The wire is lossless by default. A FaultInjector (Machine.SetFaults;
// implemented by internal/fault) can drop or duplicate individual
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
	// IsReply reports whether this message answers a request — a short
	// reply or a bulk reply fragment — and so may not itself be answered.
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

// bulk reports whether the kind carries a DMA payload.
func (k msgKind) bulk() bool { return k == kindBulk || k == kindBulkReply }

// reply reports whether the kind answers a request, which exempts it
// from the window.
func (k msgKind) reply() bool { return k == kindReply || k == kindBulkReply }

// message is one record in flight: a request, reply or bulk fragment,
// or a window credit (kindCredit, which uses only m, src and dst). The
// pool keeps the in-flight high-water mark of records alive for the
// whole run (six to eight per processor on the scale-radix ladder), so
// the record stays within the 128-byte allocation size class: kind and
// class sit together in one word, and the reliability header lives on
// the sender's relEntry, which rel points to, rather than on every
// record of every run.
type message struct {
	m       *Machine // owning machine, for pool recycling and event dispatch
	src     int
	dst     int
	kind    msgKind
	class   Class
	arrival sim.Time
	handler Handler
	bulkH   BulkHandler
	args    Args
	data    []byte
	// rel is the reliability layer's record of the message (sequence
	// number and piggybacked ack); nil when the layer is off.
	rel *relEntry
}

// seq is the message's position in its src→dst stream (1-based; 0 means
// unsequenced, as every message is with the reliability layer off).
func (msg *message) seq() int64 {
	if msg.rel == nil {
		return 0
	}
	return msg.rel.seq
}

// Machine couples a simulation engine with a communication fabric: one
// Endpoint (host interface + NIC) per processor, a shared LogGP parameter
// set, and shared instrumentation.
type Machine struct {
	eng    *sim.Engine
	params logp.Params
	eps    []*Endpoint
	stats  *Stats
	// hooks are the attached observers, called in attach order at every
	// emit site; empty when none is attached.
	hooks []Hooks

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

// SetHooks replaces the machine's observers with hs, in order, dropping
// nil entries; no argument detaches them all. Every processor's idle,
// wake and stretch clock advances are forwarded to the observers as
// well. Attach before the run starts: the profiler's conservation proof
// needs to see time zero onward.
func (m *Machine) SetHooks(hs ...Hooks) {
	var list []Hooks
	for _, h := range hs {
		if h != nil {
			list = append(list, h)
		}
	}
	m.hooks = list
	for i, ep := range m.eps {
		if len(list) == 0 {
			ep.proc.SetClockHook(nil)
			continue
		}
		id := i
		ep.proc.SetClockHook(func(kind sim.ClockKind, from, to sim.Time) {
			for _, h := range list {
				h.ClockAdvanced(id, kind, from, to)
			}
		})
	}
}

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
	// pre is the request preamble's progress (PollT, RequestT, StoreT;
	// cont.go): 0 idle, 1 between poll steps, 2 parked on a full window.
	// One preamble runs at a time (one body, and handlers may not send
	// requests), so one byte per endpoint suffices.
	pre uint8
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
// bodies return it from Resume (see cont.go). The record reports its own
// span to the hooks: WaitBegin when set arms it, WaitEnd the first time
// Ready holds — the scheduler's decision that the wait is over, at the
// instant the body resumes (no event runs and no clock moves between).
// Four modes, chosen to keep the steady-state paths closure-free:
//
//   - waitModeWindow: a window stall on dst, ready when a request credit
//     toward dst is free (the request preamble's stall).
//   - waitModeCond: a WaitUntilFor condition closure.
//   - waitModeCounter: ready when *ctr >= target — the closure-free form
//     continuation primitives use for replies, barrier rounds, and
//     collective operands (cumulative counters, so no reset races).
//   - waitModeQuiesce: ready when every outstanding request is acked
//     (store sync).
type epWait struct {
	ep     *Endpoint
	mode   waitMode
	kind   WaitKind
	ended  bool // WaitEnd reported; Ready is re-tested after it holds
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

// set re-points the endpoint's reusable wait record at a new wait and
// reports its start. Waits never nest (one body, and handlers may not
// wait), so reuse is safe in both runtime modes.
//
//repro:hotpath
func (w *epWait) set(mode waitMode, kind WaitKind, cond func() bool, ctr *int64, target int64, dst, win int, reason string) *epWait {
	w.mode, w.kind, w.ended, w.cond, w.ctr, w.target, w.dst, w.win, w.reason = mode, kind, false, cond, ctr, target, dst, win, reason
	for _, h := range w.ep.m.hooks {
		h.WaitBegin(w.ep.ID(), kind, w.ep.proc.Clock())
	}
	return w
}

// Ready tests the awaited condition and, the first time it holds,
// reports the end of the wait.
//
//repro:hotpath
func (w *epWait) Ready(_ *sim.Proc) bool {
	var ok bool
	switch w.mode {
	case waitModeCond:
		ok = w.cond()
	case waitModeCounter:
		ok = *w.ctr >= w.target
	case waitModeQuiesce:
		ok = w.ep.outstanding.total == 0
	default:
		ok = w.ep.outstanding.get(w.dst) < w.win
	}
	if ok && !w.ended {
		w.ended = true
		for _, h := range w.ep.m.hooks {
			h.WaitEnd(w.ep.ID(), w.kind, w.ep.proc.Clock())
		}
	}
	return ok
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
	if d > 0 {
		// Report the base charge only: a fault-injected stretch extends
		// the clock past from+d and is reported as ClockStretch instead.
		for _, h := range ep.m.hooks {
			h.ComputeCharged(ep.ID(), from, from+d)
		}
	}
}

func (ep *Endpoint) params() *logp.Params { return &ep.m.params }

// Request sends a short active message to dst and returns once the host
// processor has handed it to the NIC (the message itself is in flight).
// GAM polls the network on every request, so it services arrivals first,
// and it stalls, spin-polling, if the outstanding-request window to dst
// is full. It drives RequestT (cont.go) to completion, so the blocking
// and resumable send paths are one implementation.
//
//repro:hotpath
func (ep *Endpoint) Request(dst int, class Class, h Handler, args Args) {
	for wt := ep.RequestT(dst, class, h, args); wt != nil; wt = ep.RequestT(dst, class, h, args) {
		ep.proc.Await(wt)
	}
}

// Reply answers the request identified by tok with a short active message.
// Replies bypass the window (they can always be injected) and are legal
// from handler context; each request may be answered at most once.
//
//repro:hotpath
func (ep *Endpoint) Reply(tok *Token, h Handler, args Args) {
	tok.answer("Reply", h == nil)
	ep.commit(kindReply, tok.Src, tok.Class, h, nil, args, nil)
}

// answer enforces the reply discipline Reply and ReplyBulk share — a
// request token, answered once, by a reply with a handler — and marks
// the request answered.
//
//repro:hotpath
func (tok *Token) answer(op string, nilHandler bool) {
	if tok == nil || tok.IsReply {
		panic("am: " + op + " requires a request token")
	}
	if tok.replied {
		panic("am: duplicate Reply to one request")
	}
	if nilHandler {
		panic("am: " + op + " with nil handler")
	}
	tok.replied = true
}

// Store sends one bulk fragment (≤ FragmentSize bytes) to dst, invoking h
// on the receiver when the DMA completes. The data is copied at send time.
// Store counts as one bulk message (the paper's "Active Message bulk
// transfer mechanism"); larger transfers are loops of Stores — see
// StoreLarge. Like Request, it drives its resumable form, StoreT.
//
//repro:hotpath
func (ep *Endpoint) Store(dst int, class Class, h BulkHandler, args Args, data []byte) {
	for wt := ep.StoreT(dst, class, h, args, data); wt != nil; wt = ep.StoreT(dst, class, h, args, data) {
		ep.proc.Await(wt)
	}
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
	tok.answer("ReplyBulk", h == nil)
	if p := ep.params(); len(data) > p.FragmentSize {
		panic(fmt.Sprintf("am: ReplyBulk of %d bytes exceeds fragment size %d", len(data), p.FragmentSize))
	}
	ep.commit(kindBulkReply, tok.Src, tok.Class, nil, h, args, data)
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

// commit is the host half of every send — request, store, reply or bulk
// reply: charge o_send (plus the added overhead), count the message,
// reserve the NIC transmit context, report the send to the hooks as one
// SendEvent and hand the message to the reliability layer (which
// sequences it and arms its retransmission) or straight to the wire. Every host-initiated send passes here exactly
// once; retransmissions re-enter at reserveTx.
//
//repro:hotpath
func (ep *Endpoint) commit(kind msgKind, dst int, class Class, h Handler, bh BulkHandler, args Args, data []byte) {
	from := ep.proc.Clock()
	o := ep.params().EffOSend()
	ep.proc.Advance(o)
	msg := ep.m.getMsg()
	msg.kind, msg.src, msg.dst, msg.class, msg.handler, msg.bulkH, msg.args, msg.data = kind, ep.ID(), dst, class, h, bh, args, data
	now := ep.proc.Clock()
	ep.m.stats.countSendAt(msg.src, dst, class, kind.bulk(), len(data), now)
	inject, gapFree, arrival := ep.reserveTx(msg, now, false)
	for _, hk := range ep.m.hooks {
		hk.MessageSent(SendEvent{Src: msg.src, Dst: dst, Class: class, Reply: kind.reply(), Bulk: kind.bulk(),
			OFrom: from, OTo: from + o, At: now, Inject: inject, GapFree: gapFree, BusyFree: ep.txFreeAt, Arrival: arrival})
	}
	if r := ep.rel; r != nil {
		r.send(ep, msg, inject, arrival)
		return
	}
	ep.m.putOnWire(msg, arrival, false)
}

// reserveTx reserves the NIC transmit context for one transmission of
// msg that is ready at `at`, and returns its injection, gap-free and
// arrival instants. Injection waits for the context to be free; the
// context is then held for the gap (g+Δg) and, for a bulk fragment, its
// DMA time (G·size, the bulk-Gap knob). The receive context is unaffected (the
// LANai's dual hardware contexts). The message arrives L+ΔL after
// injection, plus the DMA time. A host send is reported whole by its
// commit; retrans reports a reliability-layer retransmission to the
// hooks here.
//
//repro:hotpath
func (ep *Endpoint) reserveTx(msg *message, at sim.Time, retrans bool) (inject, gapFree, arrival sim.Time) {
	p := ep.params()
	inject = max(at, ep.txFreeAt)
	gapFree = inject + p.EffGap()
	wire := p.EffLatency()
	ep.txFreeAt = gapFree
	if msg.kind.bulk() {
		dma := p.BulkTime(len(msg.data))
		ep.txFreeAt += dma
		wire += dma
	}
	if retrans {
		for _, h := range ep.m.hooks {
			h.TxRetransmit(ep.ID(), inject, gapFree, ep.txFreeAt)
		}
	}
	return inject, gapFree, inject + wire
}

// putOnWire performs one physical transmission of msg: the fault injector
// (if any) may drop it or duplicate it; whatever survives is scheduled to
// arrive at the destination NIC — straight into the inbox on a lossless
// wire (deliverEvent), through the receiver's protocol step under the
// reliability layer (relArriveEvent). retrans marks reliability-layer
// retransmissions.
//
//repro:hotpath
func (m *Machine) putOnWire(msg *message, arrival sim.Time, retrans bool) {
	arrive := deliverEvent
	if m.rel != nil {
		arrive = relArriveEvent
	}
	if f := m.faults; f != nil {
		act := f.OnWire(WireMsg{
			Src:        msg.src,
			Dst:        msg.dst,
			Class:      msg.class,
			Reply:      msg.kind.reply(),
			Retransmit: retrans,
			Seq:        msg.seq(),
		})
		if act.Drop {
			m.stats.WireDrops++
			return
		}
		if act.Duplicate {
			m.stats.WireDups++
			m.eng.ScheduleCall(arrival, arrive, msg)
		}
	}
	m.eng.ScheduleCall(arrival, arrive, msg)
}

// returnCredit schedules the firmware-level ack that frees one window slot
// at the requester. It costs the hosts nothing (the LANai handles it) and,
// like replies, bypasses the transmit gap (acks piggyback). The credit
// rides a pooled record through the zero-alloc event path.
//
//repro:hotpath
func (m *Machine) returnCredit(requester, responder int, at sim.Time) {
	for _, h := range m.hooks {
		h.CreditIssued(requester, responder, at)
	}
	msg := m.getMsg()
	msg.kind, msg.src, msg.dst = kindCredit, requester, responder
	m.eng.ScheduleCall(at+m.params.EffLatency(), creditEvent, msg)
}

// deliver lands msg in the inbox at `at`: the one delivery both wires
// share — on a lossless wire at its arrival, under the reliability layer
// once it is next in its stream's sequence. A reply frees its window
// credit here, at the NIC, before the host polls.
//
//repro:hotpath
func (ep *Endpoint) deliver(msg *message, at sim.Time) {
	reply := msg.kind.reply()
	if reply {
		ep.outstanding.dec(msg.src)
	}
	for _, h := range ep.m.hooks {
		h.MessageDelivered(msg.src, msg.dst, reply, at)
	}
	msg.arrival = at
	ep.pushInbox(msg)
	ep.proc.WakeAt(at)
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
// inspected and one after every serviced arrival. It drives PollT
// (cont.go) to completion.
//
//repro:hotpath
func (ep *Endpoint) Poll() {
	for wt := ep.PollT(); wt != nil; wt = ep.PollT() {
		ep.proc.Await(wt)
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
	for _, h := range ep.m.hooks {
		h.RecvOverhead(ep.ID(), from, from+o)
	}
	tok := &ep.tok
	*tok = Token{Src: msg.src, Class: msg.class, IsReply: msg.kind.reply(), dst: msg.dst}
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
	for _, h := range ep.m.hooks {
		h.MessageHandled(msg.src, msg.dst, msg.class, msg.kind.bulk(), ep.proc.Clock())
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

// WaitUntilFor is WaitUntil with an explicit wait classification: the
// CondWait record it parks on reports the wait to the hooks under kind.
func (ep *Endpoint) WaitUntilFor(kind WaitKind, cond func() bool, reason string) {
	if ep.inHandler {
		panic("am: WaitUntil called from a message handler")
	}
	ep.proc.Await(ep.CondWait(kind, cond, reason))
	ep.pw.cond = nil // do not keep the caller's closure alive past the wait
}

// Outstanding reports the in-flight request count toward dst (tests).
func (ep *Endpoint) Outstanding(dst int) int { return ep.outstanding.get(dst) }
