// Package logp defines the LogGP machine parameterization used throughout
// the reproduction: the latency L, the per-message processor overhead o
// (split into send and receive sides), the per-message gap g, the per-byte
// Gap G for bulk transfers, and the network capacity window.
//
// Following §3.2 of the paper, a machine is a baseline parameter set plus
// four independently adjustable deltas:
//
//   - DeltaO is charged on the host processor at every message send and
//     every message reception (the paper's stall loop around the NIC
//     read/write).
//   - DeltaG stalls the NIC transmit path after a message is on the wire,
//     so latency and overhead are unaffected.
//   - DeltaL defers the receiver-side presence bit (the LANai delay queue),
//     so the send path — and hence o and g — is unaffected.
//   - BulkBandwidth caps the bulk-fragment DMA bandwidth (the paper's G
//     knob): the transmit context stalls after injecting each fragment for
//     a period proportional to the fragment size.
package logp

import (
	"fmt"

	"repro/internal/sim"
)

// Params describes one communication architecture in LogGP terms, plus the
// implementation details of the Active Message layer that the paper's
// calibration showed to matter (the overhead split and the flow-control
// window).
type Params struct {
	// OSend is the host-processor time to write a short message into the
	// network interface. The Berkeley NOW measures 1.8 µs (Figure 3).
	OSend sim.Time
	// ORecv is the host-processor time to read a short message from the
	// network interface and dispatch its handler. NOW: 4.0 µs (Figure 3).
	ORecv sim.Time
	// Gap is the minimum interval between consecutive message injections by
	// one network interface (the LANai message-handling loop). NOW: 5.8 µs.
	Gap sim.Time
	// Latency is the end-to-end wire+NIC transit time for a short message.
	// NOW: 5.0 µs.
	Latency sim.Time
	// GPerByte is the bulk-transfer time per byte (LogGP's G). On the NOW
	// this is set by the SBUS DMA rate, 1/38 MB/s ≈ 26.3 ns/byte.
	GPerByte float64 // nanoseconds per byte
	// Window is the maximum number of outstanding (un-replied) request
	// messages per destination. The paper notes its implementation has a
	// fixed number of outstanding messages independent of L; 8 reproduces
	// Table 2's effective-gap rise at large L.
	Window int
	// FragmentSize is the bulk-transfer fragment size in bytes (4 KB on
	// the NOW's GAM).
	FragmentSize int

	// The four experiment knobs (all default zero = unmodified machine).

	// DeltaO is added overhead, charged once per send and once per receive.
	DeltaO sim.Time
	// DeltaG is added gap, stalling the NIC transmit path post-injection.
	DeltaG sim.Time
	// DeltaL is added latency, applied at the receiver's delay queue.
	DeltaL sim.Time
	// BulkBandwidthMBs, when > 0, caps bulk bandwidth to this many MB/s by
	// raising the effective per-byte Gap (it never lowers G below the
	// machine's own rate).
	BulkBandwidthMBs float64
}

// O reports the average short-message overhead (o_send+o_recv)/2 including
// DeltaO, matching the paper's single-number "o" convention.
func (p Params) O() sim.Time {
	return (p.OSend + p.ORecv + 2*p.DeltaO) / 2
}

// EffOSend is the send-side overhead including the experiment delta.
func (p Params) EffOSend() sim.Time { return p.OSend + p.DeltaO }

// EffORecv is the receive-side overhead including the experiment delta.
func (p Params) EffORecv() sim.Time { return p.ORecv + p.DeltaO }

// EffGap is the NIC injection gap including the experiment delta.
func (p Params) EffGap() sim.Time { return p.Gap + p.DeltaG }

// EffLatency is the short-message latency including the experiment delta.
func (p Params) EffLatency() sim.Time { return p.Latency + p.DeltaL }

// EffGPerByte is the bulk per-byte time in nanoseconds, after applying the
// bulk bandwidth cap.
func (p Params) EffGPerByte() float64 {
	g := p.GPerByte
	if p.BulkBandwidthMBs > 0 {
		capG := 1e3 / p.BulkBandwidthMBs // ns per byte at the cap
		if capG > g {
			g = capG
		}
	}
	return g
}

// BulkMBs reports the effective bulk bandwidth in MB/s (1/G).
func (p Params) BulkMBs() float64 {
	g := p.EffGPerByte()
	if g <= 0 {
		return 0
	}
	return 1e3 / g
}

// BulkTime returns the wire/DMA time to move n bytes at the effective G.
func (p Params) BulkTime(n int) sim.Time {
	return sim.Time(float64(n)*p.EffGPerByte() + 0.5)
}

// Validate reports a descriptive error for non-physical parameter sets.
func (p Params) Validate() error {
	switch {
	case p.OSend < 0 || p.ORecv < 0 || p.Gap < 0 || p.Latency < 0:
		return fmt.Errorf("logp: negative base parameter: %+v", p)
	case p.DeltaO < 0 || p.DeltaG < 0 || p.DeltaL < 0:
		return fmt.Errorf("logp: negative delta: %+v", p)
	case !(p.GPerByte >= 0 && p.BulkBandwidthMBs >= 0):
		return fmt.Errorf("logp: negative bandwidth term: %+v", p)
	case p.Window < 1:
		return fmt.Errorf("logp: window must be >= 1, got %d", p.Window)
	case p.FragmentSize < 1:
		return fmt.Errorf("logp: fragment size must be >= 1, got %d", p.FragmentSize)
	}
	return nil
}

func (p Params) String() string {
	return fmt.Sprintf("o=%.1fµs (s=%.1f r=%.1f) g=%.1fµs L=%.1fµs G=%.1fMB/s W=%d",
		p.O().Micros(), p.EffOSend().Micros(), p.EffORecv().Micros(),
		p.EffGap().Micros(), p.EffLatency().Micros(), p.BulkMBs(), p.Window)
}

// MBsToNsPerByte converts a bandwidth in MB/s to nanoseconds per byte.
func MBsToNsPerByte(mbs float64) float64 { return 1e3 / mbs }

// NOW returns the Berkeley NOW baseline (Table 1): o=2.9 µs (1.8 send /
// 4.0 receive), g=5.8 µs, L=5.0 µs, 38 MB/s bulk.
func NOW() Params {
	return Params{
		OSend:        sim.FromMicros(1.8),
		ORecv:        sim.FromMicros(4.0),
		Gap:          sim.FromMicros(5.8),
		Latency:      sim.FromMicros(5.0),
		GPerByte:     MBsToNsPerByte(38),
		Window:       8,
		FragmentSize: 4096,
	}
}

// Paragon returns the Intel Paragon comparison point from Table 1:
// o=1.8 µs, g=7.6 µs, L=6.5 µs, 141 MB/s.
func Paragon() Params {
	return Params{
		OSend:        sim.FromMicros(1.4),
		ORecv:        sim.FromMicros(2.2),
		Gap:          sim.FromMicros(7.6),
		Latency:      sim.FromMicros(6.5),
		GPerByte:     MBsToNsPerByte(141),
		Window:       8,
		FragmentSize: 4096,
	}
}

// Meiko returns the Meiko CS-2 comparison point from Table 1:
// o=1.7 µs, g=13.6 µs, L=7.5 µs, 47 MB/s.
func Meiko() Params {
	return Params{
		OSend:        sim.FromMicros(1.3),
		ORecv:        sim.FromMicros(2.1),
		Gap:          sim.FromMicros(13.6),
		Latency:      sim.FromMicros(7.5),
		GPerByte:     MBsToNsPerByte(47),
		Window:       8,
		FragmentSize: 4096,
	}
}

// LAN returns a mid-1990s switched-LAN TCP/IP stack of the kind the paper
// uses as its slow extreme: ~100 µs overhead with NOW-like latency and gap.
func LAN() Params {
	p := NOW()
	p.DeltaO = sim.FromMicros(100)
	return p
}
