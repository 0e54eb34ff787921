package am

import "repro/internal/sim"

// WireMsg describes one physical wire transmission to the fault injector:
// retransmissions are consulted again, with Retransmit set, so drop
// probabilities apply per transmission, not per message.
type WireMsg struct {
	// Src and Dst are the sending and receiving processors.
	Src, Dst int
	// Class is the sender's traffic classification.
	Class Class
	// Bulk marks bulk fragments (Store/ReplyBulk).
	Bulk bool
	// Reply marks replies (short or bulk).
	Reply bool
	// Retransmit marks reliability-layer retransmissions.
	Retransmit bool
	// Seq is the reliability-layer sequence number (0 when the layer is
	// off).
	Seq int64
}

// FaultAction is the injector's verdict for one physical transmission.
// Drop wins over Duplicate; ExtraLatency applies to every surviving copy.
type FaultAction struct {
	// Drop loses the transmission on the wire.
	Drop bool
	// Duplicate delivers the transmission twice.
	Duplicate bool
	// ExtraLatency is added to the transmission's flight time.
	ExtraLatency sim.Time
}

// FaultInjector is the seam a fault model (internal/fault) plugs into the
// machine. All methods run synchronously on the simulating goroutine in
// deterministic order, so a seeded injector yields identical fault
// schedules across runs.
type FaultInjector interface {
	// OnWire is consulted once per physical transmission, at its
	// injection instant, and returns what the wire does to it.
	OnWire(w WireMsg, inject sim.Time) FaultAction
	// ChargeExtra is consulted after every explicit processor charge
	// [from, from+d) and returns fault-injected time to append — the
	// mechanism behind slowdown windows and one-off processor delays.
	ChargeExtra(proc int, from, d sim.Time) sim.Time
	// Lossy reports whether the plan can drop or duplicate transmissions.
	// A lossy wire needs the reliability layer: without it a dropped
	// credit stalls the sender forever and a duplicate runs its handler
	// twice. Layers above enforce this pairing.
	Lossy() bool
}

// SetFaults attaches a fault injector (nil detaches): OnWire intercepts
// every transmission, and each processor's charge-stretch hook is wired
// to ChargeExtra. Attach before the run starts.
func (m *Machine) SetFaults(inj FaultInjector) {
	m.faults = inj
	// A lossy injector can schedule duplicate arrivals of one message
	// record, so delivery-time recycling must be off (see pool.go).
	m.updatePooling()
	for i, ep := range m.eps {
		if inj == nil {
			ep.proc.SetStretch(nil)
			continue
		}
		id := i
		ep.proc.SetStretch(func(from, d sim.Time) sim.Time {
			return inj.ChargeExtra(id, from, d)
		})
	}
}
