package am

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sim"
)

// ErrFaultOverflow fails a run whose fault plan stretches a charge or
// delays an arrival past what the virtual clock can hold.
var ErrFaultOverflow = errors.New("am: fault-injected delay overflows the virtual clock")

// WireMsg describes one physical wire transmission to the fault injector:
// retransmissions are consulted again, with Retransmit set, so drop
// probabilities apply per transmission, not per message.
type WireMsg struct {
	// Src and Dst are the sending and receiving processors.
	Src, Dst int
	// Class is the sender's traffic classification.
	Class Class
	// Reply marks replies (short or bulk).
	Reply bool
	// Retransmit marks reliability-layer retransmissions.
	Retransmit bool
	// Seq is the reliability-layer sequence number (0 when the layer is
	// off).
	Seq int64
}

// FaultAction is the injector's verdict for one physical transmission.
// Drop wins over Duplicate.
type FaultAction struct {
	// Drop loses the transmission on the wire.
	Drop bool
	// Duplicate delivers the transmission twice, both copies at its
	// nominal arrival instant.
	Duplicate bool
}

// FaultInjector is the seam a fault model (internal/fault) plugs into the
// machine. All methods run synchronously on the simulating goroutine in
// deterministic order, so a seeded injector yields identical fault
// schedules across runs.
type FaultInjector interface {
	// OnWire is consulted once per physical transmission, in injection
	// order, and returns what the wire does to it.
	OnWire(w WireMsg) FaultAction
	// ChargeExtra is consulted after every explicit processor charge
	// [from, from+d) and returns fault-injected time to append — the
	// mechanism behind one-off processor stalls.
	ChargeExtra(proc int, from, d sim.Time) sim.Time
	// Lossy reports whether the plan can drop or duplicate transmissions.
	// A lossy wire needs the reliability layer: without it a dropped
	// credit stalls the sender forever and a duplicate runs its handler
	// twice. Layers above enforce this pairing.
	Lossy() bool
}

// SetFaults attaches a fault injector (nil detaches): OnWire intercepts
// every transmission, and each processor's charge-stretch hook is wired
// to ChargeExtra. A stretch that would carry a clock past int64 fails
// the run with ErrFaultOverflow. Attach before the run starts.
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
			extra := inj.ChargeExtra(id, from, d)
			if extra > math.MaxInt64-from-d {
				m.eng.Fail(fmt.Errorf("%w: %v stretching a %v charge on proc %d at %v",
					ErrFaultOverflow, extra, d, id, from))
			}
			return extra
		})
	}
}
