package splitc

import (
	"repro/internal/logp"
	"repro/internal/sim"
)

// This file holds the closed-form LogGP cost models the registry rows
// (coll.go) carry and the auto-tuner minimizes. Each model is the
// critical-path cost of one collective episode under the LogGP
// short-message rules the simulator charges: a message costs o_send on
// the sender's CPU, L on the wire, and o_recv on the receiver's CPU;
// back-to-back sends from one processor are paced by max(g, o_send);
// back-to-back receives on one processor serialize on o_recv. The models
// are evaluated analytically (no event simulation) — small loops over
// rounds or nodes, exact for the schedules the algorithms actually
// issue. Messages larger than one word add a per-byte G term to the wire
// time.

// Model is the effective short-message LogGP machine the cost formulas
// run on.
type Model struct {
	OSend    sim.Time
	ORecv    sim.Time
	Gap      sim.Time
	Latency  sim.Time
	GPerByte float64 // nanoseconds per byte beyond the first word
}

// ModelOf extracts the effective (post-delta) machine from params.
func ModelOf(p logp.Params) Model {
	return Model{
		OSend:    p.EffOSend(),
		ORecv:    p.EffORecv(),
		Gap:      p.EffGap(),
		Latency:  p.EffLatency(),
		GPerByte: p.EffGPerByte(),
	}
}

// wordBytes is the payload a single short message carries; larger
// collective payloads pay a G term per extra byte.
const wordBytes = 8

// wire is the network time of one message of the given size.
func (m Model) wire(bytes int) sim.Time {
	w := m.Latency
	if bytes > wordBytes {
		w += sim.Time(float64(bytes-wordBytes) * m.GPerByte)
	}
	return w
}

// hop is the end-to-end time of one message: send CPU, wire, receive CPU.
func (m Model) hop(bytes int) sim.Time {
	return m.OSend + m.wire(bytes) + m.ORecv
}

// pace is the spacing between back-to-back injections from one sender.
func (m Model) pace() sim.Time {
	if m.Gap > m.OSend {
		return m.Gap
	}
	return m.OSend
}

// treeCost gathers up the binomial tree and broadcasts back down it.
func treeCost(p, bytes int, m Model) sim.Time {
	return binomialGather(p, bytes, m) + binomialBcast(p, bytes, m)
}

// flatCost serializes all P-1 arrivals on the root's o_recv, then fans
// out flat.
func flatCost(p, bytes int, m Model) sim.Time {
	gather := m.OSend + m.wire(bytes) + sim.Time(p-1)*m.ORecv
	return gather + flatBcast(p, bytes, m)
}

// recDoubleCost is recursive doubling: one full hop per exchange round
// of the power-of-two core, plus a fold into and an unfold out of it.
func recDoubleCost(p, bytes int, m Model) sim.Time {
	hb := highestBit(p)
	c := sim.Time(hb) * m.hop(bytes)
	if p != 1<<uint(hb) {
		c += 2 * m.hop(bytes)
	}
	return c
}

// binomialBcast evaluates the binomial broadcast's critical path exactly
// for the schedule splitc issues: virtual id v receives from its parent
// (v minus its highest set bit), which sends to its children in round
// order, injections paced by max(g, o_send). O(p) node evaluation.
func binomialBcast(p, bytes int, m Model) sim.Time {
	ready := make([]sim.Time, p) // time vid v holds the value
	var worst sim.Time
	for v := 1; v < p; v++ {
		hb := highestBit(v)
		parent := v &^ (1 << uint(hb))
		// The parent's send to v is its k-th (0-based) injection, where k
		// counts the parent's earlier rounds that had an in-range child.
		first := 0
		if parent != 0 {
			first = highestBit(parent) + 1
		}
		k := 0
		for r := first; r < hb; r++ {
			if parent+1<<r < p {
				k++
			}
		}
		depart := ready[parent] + m.OSend + sim.Time(k)*m.pace()
		ready[v] = depart + m.wire(bytes) + m.ORecv
		if ready[v] > worst {
			worst = ready[v]
		}
	}
	return worst
}

// binomialGather is the mirror image: leaves send first, every node
// forwards once all children arrived, receives serialize on o_recv.
func binomialGather(p, bytes int, m Model) sim.Time {
	return gatherDone(0, p, bytes, m)
}

// gatherDone returns the time node v (virtual id, root 0) has absorbed
// its whole subtree. Children are v+2^r for each round r with v < 2^r;
// child arrivals serialize on the receiver's o_recv.
func gatherDone(v, p, bytes int, m Model) sim.Time {
	var t sim.Time
	for r := 0; 1<<r < p; r++ {
		child := v + 1<<r
		if v >= 1<<r || child >= p {
			continue
		}
		sent := gatherDone(child, p, bytes, m) + m.OSend
		arrive := sent + m.wire(bytes)
		if arrive > t {
			t = arrive
		}
		t += m.ORecv
	}
	return t
}

// flatBcast is the root-sends-everyone fan-out: the last of P-1
// injections leaves after P-2 pacing gaps.
func flatBcast(p, bytes int, m Model) sim.Time {
	return m.OSend + sim.Time(p-2)*m.pace() + m.wire(bytes) + m.ORecv
}
