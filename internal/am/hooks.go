package am

import "repro/internal/sim"

// WaitKind classifies why an endpoint is blocked inside WaitUntil — the
// semantic label a profiler needs to charge the idle time to the right
// account (window stall vs. latency wait vs. barrier wait, …).
type WaitKind uint8

const (
	// WaitData is the generic kind: blocked on remote data or an
	// application-level condition (the default for Endpoint.WaitUntil).
	WaitData WaitKind = iota
	// WaitWindow is a capacity stall: the outstanding-request window to
	// some destination is full.
	WaitWindow
	// WaitRead is a blocking remote read awaiting its reply.
	WaitRead
	// WaitStore is a store-sync: waiting for issued requests to be acked.
	WaitStore
	// WaitBulk is a bulk get awaiting its DMA reply fragments.
	WaitBulk
	// WaitBarrier is a barrier or collective notification wait.
	WaitBarrier
	// WaitLock is a lock, test-and-set, or atomic-RMW round trip.
	WaitLock
)

func (k WaitKind) String() string {
	switch k {
	case WaitData:
		return "data"
	case WaitWindow:
		return "window"
	case WaitRead:
		return "read"
	case WaitStore:
		return "store"
	case WaitBulk:
		return "bulk"
	case WaitBarrier:
		return "barrier"
	case WaitLock:
		return "lock"
	}
	return "wait?"
}

// SyncRegion identifies a synchronization-layer region reported through
// Endpoint.MarkSyncEnter and MarkSyncExit.
type SyncRegion uint8

const (
	// RegionBarrier spans a Barrier call (store-sync included).
	RegionBarrier SyncRegion = iota
	// RegionLock spans a Lock call's acquisition spin.
	RegionLock
)

func (r SyncRegion) String() string {
	if r == RegionLock {
		return "lock"
	}
	return "barrier"
}

// SendEvent is one host send, reported once through Hooks.MessageSent:
// the o_send charge, the hand-off to the NIC, the transmit-context
// reservation and the wire flight, in one record passed by value.
type SendEvent struct {
	// Src and Dst are the sending and receiving processors.
	Src, Dst int
	// Class is the sender's traffic classification.
	Class Class
	// Reply marks responses (bulk reply fragments included), which
	// bypass the request window; Bulk marks DMA fragments.
	Reply, Bulk bool
	// OFrom and OTo bound the o_send charge (plus Δo) on Src: the host
	// was busy writing the message to the NIC on [OFrom, OTo).
	OFrom, OTo sim.Time
	// At is the hand-off instant: Src's clock once the charge, and any
	// fault-injected stretch of it, is over.
	At sim.Time
	// Inject is when the message leaves the transmit context, which is
	// gap-limited on [Inject, GapFree) and, for a bulk fragment,
	// DMA-limited on [GapFree, BusyFree); GapFree == BusyFree for a
	// short message. The message occupies the wire on [Inject, Arrival).
	Inject, GapFree, BusyFree, Arrival sim.Time
}

// Hooks is the machine's one observer interface. Each occurrence the
// Active Message layer makes — a send, a receive charge, a compute
// charge, a wait, an idle clock advance, a wire stage, a synchronization
// region — is reported through exactly one method call per attached
// value, so a consumer never reconciles two reports of one thing. Attach
// with Machine.SetHooks (or, one level up, splitc.World.Attach); the
// machine calls each attached value in attach order. All methods run
// synchronously on the simulating goroutine, must not call back into the
// endpoint, and must not alter virtual time — hooks observe a run, they
// never change it.
//
// The charge spans (SendEvent's o_send span, RecvOverhead,
// ComputeCharged) and the ClockAdvanced spans together tile each
// processor's timeline exactly once: the invariant behind
// internal/prof's conservation proof.
//
// Embed NopHooks to implement only the methods you care about.
type Hooks interface {
	// MessageSent fires once per host send (request, store, reply or
	// bulk reply), after the o_send charge and the transmit reservation;
	// retransmissions are reported by TxRetransmit instead.
	MessageSent(e SendEvent)
	// MessageHandled fires after a handler ran at the receiver.
	MessageHandled(src, dst int, class Class, bulk bool, at sim.Time)
	// RecvOverhead fires after the o_recv charge for one message.
	RecvOverhead(proc int, from, to sim.Time)
	// ComputeCharged fires after an explicit local-computation charge
	// (Endpoint.Compute), with the CPU factor already applied.
	ComputeCharged(proc int, from, to sim.Time)
	// TxRetransmit fires when the reliability layer re-injects an unacked
	// message: the NIC transmit context is gap-limited on [inject,
	// gapFree) and DMA-limited on [gapFree, busyFree) as for a send, but
	// no host overhead is charged (the retransmission is
	// firmware-initiated). Profilers charge the occupied span to a
	// retransmit account rather than the ordinary gap/bulk accounts.
	TxRetransmit(proc int, inject, gapFree, busyFree sim.Time)
	// WaitBegin fires when the processor arms one of its endpoint's wait
	// records: a window stall in the request preamble, CounterWait,
	// CondWait or QuiesceWait.
	WaitBegin(proc int, kind WaitKind, at sim.Time)
	// WaitEnd fires the first time the scheduler finds that wait over.
	WaitEnd(proc int, kind WaitKind, at sim.Time)

	// ClockAdvanced fires for every clock advance of processor proc that
	// no charge hook names: idle spins, wake jumps and fault-injected
	// stretches of a charge.
	ClockAdvanced(proc int, kind sim.ClockKind, from, to sim.Time)

	// MessageDelivered fires when the message lands in the destination
	// inbox, before any receive overhead is charged: on the lossless
	// wire at its arrival, under the reliability layer once it is next
	// in its stream's sequence (a duplicate discarded at the NIC never
	// lands). With MessageSent and CreditIssued it follows message
	// identity across processors; internal/depgraph stitches the
	// per-processor streams into a dependency graph with them.
	MessageDelivered(src, dst int, reply bool, at sim.Time)
	// CreditIssued fires when a handled-but-unreplied request frees its
	// sender-side window slot: the implicit credit leaves the responder at
	// time at and reaches the requester one wire latency later.
	CreditIssued(requester, responder int, at sim.Time)

	// SyncEnter fires when processor proc enters a synchronization
	// region, so time spent there (the compute charged by lock retries
	// included) can be attributed to barrier or lock wait rather than to
	// the mechanism underneath. Regions nest: a barrier may complete
	// stores, a lock spin polls the network.
	SyncEnter(proc int, r SyncRegion, at sim.Time)
	// SyncExit closes the innermost region SyncEnter opened.
	SyncExit(proc int, r SyncRegion, at sim.Time)
}

// NopHooks is the embeddable no-op base: embed it and override only the
// events you need, so adding a Hooks method is not a breaking change for
// downstream instrumentation.
type NopHooks struct{}

var _ Hooks = NopHooks{}

// MessageSent implements Hooks as a no-op.
func (NopHooks) MessageSent(SendEvent) {}

// MessageHandled implements Hooks as a no-op.
func (NopHooks) MessageHandled(src, dst int, class Class, bulk bool, at sim.Time) {}

// RecvOverhead implements Hooks as a no-op.
func (NopHooks) RecvOverhead(proc int, from, to sim.Time) {}

// ComputeCharged implements Hooks as a no-op.
func (NopHooks) ComputeCharged(proc int, from, to sim.Time) {}

// TxRetransmit implements Hooks as a no-op.
func (NopHooks) TxRetransmit(proc int, inject, gapFree, busyFree sim.Time) {}

// WaitBegin implements Hooks as a no-op.
func (NopHooks) WaitBegin(proc int, kind WaitKind, at sim.Time) {}

// WaitEnd implements Hooks as a no-op.
func (NopHooks) WaitEnd(proc int, kind WaitKind, at sim.Time) {}

// ClockAdvanced implements Hooks as a no-op.
func (NopHooks) ClockAdvanced(proc int, kind sim.ClockKind, from, to sim.Time) {}

// MessageDelivered implements Hooks as a no-op.
func (NopHooks) MessageDelivered(src, dst int, reply bool, at sim.Time) {}

// CreditIssued implements Hooks as a no-op.
func (NopHooks) CreditIssued(requester, responder int, at sim.Time) {}

// SyncEnter implements Hooks as a no-op.
func (NopHooks) SyncEnter(proc int, r SyncRegion, at sim.Time) {}

// SyncExit implements Hooks as a no-op.
func (NopHooks) SyncExit(proc int, r SyncRegion, at sim.Time) {}
