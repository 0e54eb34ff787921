package depgraph

import (
	"errors"
	"fmt"

	"repro/internal/am"
	"repro/internal/logp"
	"repro/internal/sim"
)

// pendFold bounds the per-processor pending-credit list: once it reaches
// this length the entries fold into one join node, so a processor that
// never quiesces cannot grow the list with its message count.
const pendFold = 256

// procState is one processor's position in the graph under construction.
// frontier is the last node on the processor's serial chain (-1 = the
// virtual origin at t = 0) and lag the constant time accumulated since
// it completed (compute charges, host sleeps) — deferring these into the
// next node's in-edge is what keeps the graph message-proportional.
type procState struct {
	frontier int32
	lastTx   int32
	lag      sim.Time
	lastOcc  sim.Time
	// inbox mirrors the endpoint's inbox: wire-arrival nodes delivered but
	// not yet consumed by an o_recv charge.
	inbox fifo
	// pend collects window-credit and reply-arrival nodes since the last
	// quiesce join (what a store-sync waits on).
	pend    []int32
	waiting bool
	// winBlocked marks that the next launch was preceded by a window
	// stall: only then does the freeing credit constrain the charge. An
	// unblocked send observed its slot free already — the engine executes
	// a credit event when any processor's checkpoint passes it, so a
	// sender running behind can see the slot freed before the credit's
	// nominal arrival, and the window imposes no timing constraint.
	winBlocked bool
	// winCause is the inbox arrival the window stall ended at, when it
	// ended off the chain and ahead of the freeing credit (-1 = none): a
	// spinning waiter can only advance its clock to its next inbox
	// arrival, so a slot freed early by another processor's checkpoint is
	// observed exactly at one.
	winCause int32
}

// stream is the per-(src,dst) ordered state: wire FIFO-matches launches
// to deliveries, credits matches window frees — in arrival order, the
// order the machine consumes them — to the sends they gate, and sent
// counts requests for the window-gating threshold.
type stream struct {
	wire    fifo
	credits heapq
	sent    int64
}

// Builder streams one run's instrumentation events into a Graph. Attach
// it like any other hook (apps.Config.Depgraph does this wiring), run to
// completion, then Seal. A Builder observes exactly one run and is not
// safe for reuse.
type Builder struct {
	am.NopHooks
	g       *Graph
	procs   []procState
	streams map[uint64]*stream
	window  int64
	lat     sim.Time
	errMsg  string
	sealed  bool
}

var _ am.Hooks = (*Builder)(nil)

// New returns a builder for a machine of the given size. params must be
// the machine's LogGP parameters at the instrumented operating point:
// the builder needs the request window (credit gating threshold) and the
// effective wire latency (credit return flight time).
func New(procs int, params logp.Params) *Builder {
	b := &Builder{
		g:       &Graph{procs: procs, sink: -1},
		procs:   make([]procState, procs),
		streams: make(map[uint64]*stream),
		window:  int64(params.Window),
		lat:     params.EffLatency(),
	}
	for i := range b.procs {
		b.procs[i].frontier = -1
		b.procs[i].lastTx = -1
		b.procs[i].winCause = -1
	}
	return b
}

// Seal finalizes the graph: a sink node joins every processor's final
// position, and the recorded makespan becomes the graph's Elapsed. It
// returns the builder's first inconsistency instead, if the run did
// something the graph cannot model (fault injection, retransmissions, a
// FIFO mismatch).
func (b *Builder) Seal(elapsed sim.Time) (*Graph, error) {
	if b.errMsg != "" {
		return nil, errors.New("depgraph: " + b.errMsg)
	}
	if b.sealed {
		return b.g, nil
	}
	b.sealed = true
	sink := b.g.newNode(KindSink, -1, elapsed)
	for i := range b.procs {
		ps := &b.procs[i]
		b.g.addEdge(sink, ps.frontier, ps.lag, AxisNone)
	}
	b.g.sink = sink
	b.g.elapsed = elapsed
	return b.g, nil
}

// fail records the first inconsistency; every later event is ignored.
func (b *Builder) fail(msg string) {
	if b.errMsg == "" {
		b.errMsg = msg
	}
}

//repro:hotpath
func (b *Builder) stream(src, dst int) *stream {
	key := uint64(uint32(src))<<32 | uint64(uint32(dst))
	st := b.streams[key]
	if st == nil {
		st = b.newStream(key)
	}
	return st
}

// newStream allocates once per communicating pair (warmup, not steady
// state).
func (b *Builder) newStream(key uint64) *stream {
	st := &stream{}
	b.streams[key] = st
	return st
}

// TxRetransmit never fires on the lossless wire the builder requires.
//
//repro:hotpath
func (b *Builder) TxRetransmit(proc int, inject, gapFree, busyFree sim.Time) {
	b.fail("retransmission observed; the reliability layer cannot be modeled")
}

// MessageSent creates the send-side nodes: the o_send completion
// (serialized on the processor chain and, for window-gated requests, on
// the freeing credit), the injection instant (serialized on the previous
// transmit reservation — gap plus bulk DMA — with a Δg edge), and the
// wire arrival (a ΔL edge).
//
//repro:hotpath
func (b *Builder) MessageSent(e am.SendEvent) {
	if b.errMsg != "" {
		return
	}
	ps := &b.procs[e.Src]
	g := b.g
	dur, end := e.OTo-e.OFrom, e.OTo

	s := g.newNode(KindOSend, int32(e.Src), end)
	g.addEdge(s, ps.frontier, ps.lag+dur, AxisO)
	st := b.stream(e.Src, e.Dst)
	if !e.Reply {
		if st.sent >= b.window {
			c, ok := st.credits.pop()
			if !ok {
				b.fail("window credit underflow")
				return
			}
			// The window is a real constraint on every send past the
			// threshold — blocked or not, the machine required this slot
			// free — so the freeing credit gates the charge whenever the
			// baseline run is consistent with its arrival. The guard drops
			// the edge when it is not: a sender parked on a full window (or
			// checking the window unblocked) can observe a slot freed by an
			// event another processor's checkpoint drained ahead of this
			// sender's clock. A blocked send whose credit was observed
			// early is instead pinned at the inbox arrival the waiter's
			// clock had advanced to (winCause).
			if ps.winBlocked {
				// The stall tracked the freeing credit: pin the charge to
				// the credit's trajectory at the exact observed distance.
				// The constant absorbs both wake quantization (positive
				// slack past the arrival) and early observation (negative:
				// another processor's checkpoint drained the credit event
				// ahead of this sender's clock), so the edge is tight at
				// the baseline by construction either way.
				g.addEdge(s, c, end-g.nodePtr(c).val, AxisO)
				if w := ps.winCause; w >= 0 && g.nodePtr(w).val+dur <= end {
					g.addEdge(s, w, dur, AxisO)
				}
			} else if g.nodePtr(c).val+dur <= end {
				// An unblocked send only needed the slot free: the credit
				// gates the charge parametrically when the baseline run is
				// consistent with its arrival.
				g.addEdge(s, c, dur, AxisO)
			}
		}
		ps.winBlocked = false
		ps.winCause = -1
		st.sent++
	}
	ps.frontier, ps.lag = s, 0

	t := g.newNode(KindTx, int32(e.Src), e.Inject)
	g.addEdge(t, s, 0, AxisNone)
	if ps.lastTx >= 0 {
		g.addEdge(t, ps.lastTx, ps.lastOcc, AxisG)
	}
	ps.lastTx, ps.lastOcc = t, e.BusyFree-e.Inject

	a := g.newNode(KindWire, int32(e.Dst), e.Arrival)
	g.addEdge(a, t, e.Arrival-e.Inject, AxisL)
	st.wire.push(a)
}

// MessageDelivered matches the arrival to its launch and queues it for
// the receiver's o_recv. A reply's arrival also frees the requester's
// window slot toward the responder.
//
//repro:hotpath
func (b *Builder) MessageDelivered(src, dst int, reply bool, at sim.Time) {
	if b.errMsg != "" {
		return
	}
	st := b.stream(src, dst)
	a, ok := st.wire.pop()
	if !ok {
		b.fail("delivery without a matching launch")
		return
	}
	if b.g.nodePtr(a).val != at {
		b.fail("arrival time differs from launch schedule (lossy or delayed wire?)")
		return
	}
	b.procs[dst].inbox.push(a)
	if reply {
		rs := b.stream(dst, src)
		rs.credits.push(at, a)
		b.pendAdd(&b.procs[dst], a)
	}
}

// RecvOverhead creates the receive node: the o_recv completion depends
// on the processor's chain and on the message's wire arrival.
//
//repro:hotpath
func (b *Builder) RecvOverhead(proc int, from, to sim.Time) {
	if b.errMsg != "" {
		return
	}
	ps := &b.procs[proc]
	a, ok := ps.inbox.pop()
	if !ok {
		b.fail("receive without a matching delivery")
		return
	}
	dur := to - from
	r := b.g.newNode(KindRecv, int32(proc), to)
	b.g.addEdge(r, ps.frontier, ps.lag+dur, AxisO)
	b.g.addEdge(r, a, dur, AxisO)
	ps.frontier, ps.lag = r, 0
}

// CreditIssued creates the firmware credit node: it leaves the responder
// at its current position and lands at the requester one wire latency
// later (a ΔL edge), freeing a window slot there.
//
//repro:hotpath
func (b *Builder) CreditIssued(requester, responder int, at sim.Time) {
	if b.errMsg != "" {
		return
	}
	ps := &b.procs[responder]
	c := b.g.newNode(KindCredit, int32(responder), at+b.lat)
	b.g.addEdge(c, ps.frontier, ps.lag+b.lat, AxisL)
	b.stream(requester, responder).credits.push(at+b.lat, c)
	b.pendAdd(&b.procs[requester], c)
}

// ComputeCharged folds local computation into the processor's lag.
//
//repro:hotpath
func (b *Builder) ComputeCharged(proc int, from, to sim.Time) {
	b.procs[proc].lag += to - from
}

// ClockAdvanced classifies clock motion no charge names: idle inside a
// wait is slack the graph resolves through its edges, and idle outside
// any wait (the disk model's host sleeps) is duration-like and folds
// into lag.
//
//repro:hotpath
func (b *Builder) ClockAdvanced(proc int, kind sim.ClockKind, from, to sim.Time) {
	if kind == sim.ClockStretch {
		b.fail("fault-stretched charge observed; faulted runs cannot be modeled")
		return
	}
	if ps := &b.procs[proc]; !ps.waiting {
		ps.lag += to - from
	}
}

// WaitBegin marks the processor as blocked: its idle time is slack, not
// duration.
//
//repro:hotpath
func (b *Builder) WaitBegin(proc int, kind am.WaitKind, at sim.Time) {
	b.procs[proc].waiting = true
}

// WaitEnd clears the blocked mark. A store-sync additionally joins the
// frontier with every pending credit: the quiesce completes only when
// all issued requests have been acknowledged.
//
//repro:hotpath
func (b *Builder) WaitEnd(proc int, kind am.WaitKind, at sim.Time) {
	ps := &b.procs[proc]
	ps.waiting = false
	front := ps.lag
	if ps.frontier >= 0 {
		front += b.g.nodePtr(ps.frontier).val
	}
	if kind == am.WaitWindow {
		ps.winBlocked = true
		ps.winCause = -1
		if front < at {
			ps.winCause = b.waitCause(ps, at)
		}
		return
	}
	cause := int32(-1)
	if front < at {
		cause = b.waitCause(ps, at)
	}
	if kind == am.WaitStore {
		if len(ps.pend) > 0 || cause >= 0 {
			b.joinPend(ps, int32(proc), at, false, cause)
		}
		return
	}
	// A data or barrier wait that ended past the processor's modeled
	// position was released by an arrival — an acknowledgement, or the
	// inbox arrival the spinning waiter's clock had advanced to when it
	// observed an early-drained effect: pin the frontier there, keeping
	// acks still in flight for a later sync.
	need := cause >= 0
	if !need {
		for _, c := range ps.pend {
			if v := b.g.nodePtr(c).val; v <= at && v > front {
				need = true
				break
			}
		}
	}
	if need {
		b.joinPend(ps, int32(proc), at, true, cause)
	}
}

// waitCause locates the arrival a wait's end coincides with: an
// acknowledgement (credit or reply, any stream) still in pend, or an
// undelivered inbox arrival. A waiter off its chain only observes at
// such instants — its clock advances to inbox arrivals while spinning,
// and a parked waiter wakes at event arrivals addressed to it — so a
// wait end matching no chain position happened exactly at one. Returns
// -1 when no arrival matches.
//
//repro:hotpath
func (b *Builder) waitCause(ps *procState, at sim.Time) int32 {
	for _, n := range ps.pend {
		if b.g.nodePtr(n).val == at {
			return n
		}
	}
	for _, n := range ps.inbox.buf[ps.inbox.head:] {
		if b.g.nodePtr(n).val == at {
			return n
		}
	}
	return -1
}

// joinPend materializes a wait-end join node over the pending
// acknowledgement arrivals and the pinning inbox arrival, if any
// (cause, -1 = none). Arrivals later than the observed end are never
// joined: the waiter saw their effect early (another processor's
// checkpoint drained the event ahead of this processor's clock), so
// they did not constrain this run. keepLater retains them for a later
// sync (a mid-run data wait); a store-sync consumes the whole list.
func (b *Builder) joinPend(ps *procState, proc int32, at sim.Time, keepLater bool, cause int32) {
	j := b.g.newNode(KindJoin, proc, at)
	b.g.addEdge(j, ps.frontier, ps.lag, AxisNone)
	if cause >= 0 {
		b.g.addEdge(j, cause, 0, AxisNone)
	}
	kept := ps.pend[:0]
	for _, c := range ps.pend {
		if b.g.nodePtr(c).val <= at {
			b.g.addEdge(j, c, 0, AxisNone)
		} else if keepLater {
			kept = append(kept, c)
		}
	}
	ps.pend = kept
	ps.frontier, ps.lag = j, 0
}

// pendAdd tracks a credit arrival for the owner's next quiesce, folding
// the list into one join node when it reaches pendFold.
//
//repro:hotpath
func (b *Builder) pendAdd(ps *procState, n int32) {
	if len(ps.pend) >= pendFold {
		b.foldPend(ps)
	}
	ps.pend = append(ps.pend, n) //lint:allow hotpathalloc amortized growth, capped at pendFold
}

// foldPend replaces the pending list with a single join over it: the
// join's in-edges preserve exactly the constraint a later quiesce needs.
func (b *Builder) foldPend(ps *procState) {
	var mx sim.Time
	for _, c := range ps.pend {
		if v := b.g.nodePtr(c).val; v > mx {
			mx = v
		}
	}
	j := b.g.newNode(KindJoin, -1, mx)
	for _, c := range ps.pend {
		b.g.addEdge(j, c, 0, AxisNone)
	}
	ps.pend = ps.pend[:0]
	ps.pend = append(ps.pend, j)
}

// String summarizes the builder for diagnostics.
func (b *Builder) String() string {
	return fmt.Sprintf("depgraph.Builder{procs: %d, nodes: %d, edges: %d}", len(b.procs), b.g.nn, b.g.ne)
}
