package splitc

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/sim"
)

// This file holds the larger collectives of the Split-C library surface:
// exclusive prefix scan, gather to a root, and a personalized all-to-all.
// The benchmark applications mostly hand-roll their communication (as the
// paper's Split-C programs did), but downstream users of the library
// routinely want these. Gather and all-to-all records carry the sender in
// the high byte, so values must fit in 56 bits.

const recordValMask = 1<<56 - 1

// ScanAdd returns the exclusive prefix sum of val across processors:
// processor i receives the sum of processors 0..i-1's values (0 on
// processor 0). Hillis-Steele over ⌈log2 P⌉ rounds of short messages.
func (p *Proc) ScanAdd(val uint64) uint64 {
	var v uint64
	p.wait(func() (wt sim.PollableWait) { v, wt = p.ScanAddT(val); return })
	return v
}

// Gather collects one word from every processor at root, returning the
// full vector there (nil elsewhere). Leaves write directly into the
// root's landing area; O(P) messages but a single round trip of depth.
func (p *Proc) Gather(root int, val uint64) []uint64 {
	var out []uint64
	p.wait(func() (wt sim.PollableWait) { out, wt = p.GatherT(root, val); return })
	return out
}

// AllToAll performs a personalized exchange: each processor provides one
// word per destination (len(vals) == P) and receives one word from every
// source, in source order. Short sync messages tagged with the sender.
func (p *Proc) AllToAll(vals []uint64) []uint64 {
	var out []uint64
	p.wait(func() (wt sim.PollableWait) { out, wt = p.AllToAllT(vals); return })
	return out
}

// closeVectorT ends a vector collective (op.bpc in its final state): the
// closing barrier that separates episodes, then hand back op.out.
func (t *TProc) closeVectorT() ([]uint64, sim.PollableWait) {
	if wt := t.BarrierT(); wt != nil {
		return nil, wt
	}
	out := t.op.out
	t.op.out = nil
	t.op.bpc = 0
	return out, nil
}

// GatherT is Gather. The root waits for P-1 records on the gather tag's
// operand cell — senders may race ahead of its call, so all but two of
// them usually sit in the overflow FIFO by then — and assembles them by
// sender; a closing barrier separates episodes. op.bpc: 0 enter, 1 root
// gathered, 2 closing barrier, 3 leaf sending.
func (t *TProc) GatherT(root int, val uint64) ([]uint64, sim.PollableWait) {
	me, P := t.ID(), t.P()
	if root < 0 || root >= P {
		panic(fmt.Sprintf("splitc: Gather root %d out of range", root))
	}
	tag := t.w.gatherTag()
	for {
		switch t.op.bpc {
		case 0:
			if me != root {
				if val > recordValMask {
					panic("splitc: Gather values must fit in 56 bits")
				}
				t.op.bpc = 3
				continue
			}
			c := t.cell(tag)
			t.op.bpc = 1
			return nil, t.ep.CounterWait(am.WaitBarrier, &c.cnt, c.exp+int64(P-1), "splitc: gather")
		case 1:
			t.op.out = make([]uint64, P)
			t.op.out[me] = val
			for i := 1; i < P; i++ {
				rec := t.popOperand(tag)
				t.op.out[rec>>56] = rec & recordValMask
			}
			t.op.bpc = 2
		case 2:
			return t.closeVectorT()
		case 3:
			if wt := t.sendCollT(root, tag, uint64(me)<<56|val); wt != nil {
				return nil, wt
			}
			t.op.bpc = 2
		}
	}
}

// AllToAllT is AllToAll: P-1 sends in destination order, then one wait
// for the P-1 incoming records, then a closing barrier so no next-round
// record can be taken for this round's. op.bpc: 0 enter, 1 send loop
// (op.br destination cursor), 2 all records arrived, 3 closing barrier.
func (t *TProc) AllToAllT(vals []uint64) ([]uint64, sim.PollableWait) {
	me, P := t.ID(), t.P()
	if len(vals) != P {
		panic(fmt.Sprintf("splitc: AllToAll needs %d values, got %d", P, len(vals)))
	}
	tag := t.w.allToAllTag()
	for {
		switch t.op.bpc {
		case 0:
			t.op.br = 0
			t.op.bpc = 1
		case 1:
			for t.op.br < P {
				dst := t.op.br
				if dst != me {
					if vals[dst] > recordValMask {
						panic("splitc: AllToAll values must fit in 56 bits")
					}
					if wt := t.sendCollT(dst, tag, uint64(me)<<56|vals[dst]); wt != nil {
						return nil, wt
					}
				}
				t.op.br++
			}
			c := t.cell(tag)
			t.op.bpc = 2
			return nil, t.ep.CounterWait(am.WaitBarrier, &c.cnt, c.exp+int64(P-1), "splitc: all-to-all")
		case 2:
			t.op.out = make([]uint64, P)
			t.op.out[me] = vals[me]
			received := make([]bool, P)
			received[me] = true
			for i := 1; i < P; i++ {
				rec := t.popOperand(tag)
				src := rec >> 56
				if received[src] {
					panic("splitc: duplicate all-to-all record")
				}
				received[src] = true
				t.op.out[src] = rec & recordValMask
			}
			t.op.bpc = 3
		case 3:
			return t.closeVectorT()
		}
	}
}
