package splitc

import (
	"repro/internal/am"
	"repro/internal/sim"
)

// The registered collective algorithms beyond the defaults in cont.go,
// in the same resumptive style: each is the one implementation both
// drivers run, so a new algorithm is one method here plus a registry row
// in coll.go.

// Barrier counter slots for the tree and flat barriers: arrivals
// accumulate in slot 0, releases in slot 1. Counters are cumulative
// across episodes, like the dissemination barrier's round counters.
const (
	slotArrive  = 0
	slotRelease = 1
)

// treeChildren counts me's children in the binomial tree rooted at 0
// (child me+2^r for every round r with 2^r > me and me+2^r < P).
func treeChildren(me, p int) int {
	n := 0
	for r := 0; 1<<r < p; r++ {
		if me < 1<<r && me+1<<r < p {
			n++
		}
	}
	return n
}

// barrierTreeT is the gather-release tree barrier's rounds: arrivals
// climb a binomial tree to processor 0 (each node forwards once its
// subtree has arrived), and the release walks the same tree back down.
// 2·⌈log2 P⌉ sequential hops on the critical path but only 2·(P-1)
// messages total, half the dissemination barrier's traffic. op.pc:
// barrierRounds gather, 3 subtree gathered, 4 arrival sent upward, 5
// release received, 6 release fan-out (op.r round cursor).
func (t *TProc) barrierTreeT() sim.PollableWait {
	w, me, P := t.w, t.ID(), t.P()
	for {
		switch t.op.pc {
		case barrierRounds:
			t.op.pc = 4
			if nch := treeChildren(me, P); nch > 0 {
				bs := w.barrierOf(me)
				t.op.pc = 3
				return t.ep.CounterWait(am.WaitBarrier, &bs.recvCount[slotArrive], int64(nch)*t.op.tgt, "splitc: tree barrier gather")
			}
		case 3:
			t.op.pc = 4
		case 4:
			if me == 0 {
				t.op.pc = 6
				continue
			}
			parent := me &^ (1 << uint(highestBit(me)))
			if wt := t.ep.RequestT(parent, am.ClassSync, w.hBarrier, am.Args{slotArrive}); wt != nil {
				return wt
			}
			bs := w.barrierOf(me)
			t.op.pc = 5
			return t.ep.CounterWait(am.WaitBarrier, &bs.recvCount[slotRelease], t.op.tgt, "splitc: tree barrier release")
		case 5:
			t.op.pc = 6
		case 6:
			for 1<<t.op.r < P {
				r := t.op.r
				if me < 1<<r && me+1<<r < P {
					if wt := t.ep.RequestT(me+1<<r, am.ClassSync, w.hBarrier, am.Args{slotRelease}); wt != nil {
						return wt
					}
				}
				t.op.r++
			}
			return nil
		}
	}
}

// barrierFlatT is the central-counter barrier's rounds: everyone reports
// to processor 0, which releases everyone directly. Depth 2, but the root
// serializes P-1 receives and P-1 paced sends — the small-P/large-o
// corner is where it can beat the log-round algorithms. op.pc:
// barrierRounds gather or report, 3 root gathered, 4 root release loop
// (op.r), 5 arrival sent, 6 release received.
func (t *TProc) barrierFlatT() sim.PollableWait {
	w, me, P := t.w, t.ID(), t.P()
	for {
		switch t.op.pc {
		case barrierRounds:
			if me != 0 {
				t.op.pc = 5
				continue
			}
			bs := w.barrierOf(me)
			t.op.pc = 3
			return t.ep.CounterWait(am.WaitBarrier, &bs.recvCount[slotArrive], int64(P-1)*t.op.tgt, "splitc: flat barrier gather")
		case 3:
			t.op.r = 1
			t.op.pc = 4
		case 4:
			for t.op.r < P {
				if wt := t.ep.RequestT(t.op.r, am.ClassSync, w.hBarrier, am.Args{slotRelease}); wt != nil {
					return wt
				}
				t.op.r++
			}
			return nil
		case 5:
			if wt := t.ep.RequestT(0, am.ClassSync, w.hBarrier, am.Args{slotArrive}); wt != nil {
				return wt
			}
			bs := w.barrierOf(me)
			t.op.pc = 6
			return t.ep.CounterWait(am.WaitBarrier, &bs.recvCount[slotRelease], t.op.tgt, "splitc: flat barrier release")
		case 6:
			return nil
		}
	}
}

// bcastBinomialT is the default broadcast: cont.go's binomial tree under
// the broadcast tag block. op.pc: 0 enter, 1 tree in progress.
func (t *TProc) bcastBinomialT(root int, val uint64) (uint64, sim.PollableWait) {
	if t.op.pc == 0 {
		t.op.acc = val
		t.op.pc = 1
	}
	v, wt := t.bcastTreeT(root, t.w.sel.bcastBase)
	if wt != nil {
		return 0, wt
	}
	t.op.pc = 0
	return v, nil
}

// bcastChainT forwards the value around the ring rotated to start at
// root: P-1 sequential hops, one send and at most one receive per
// processor — the pipelined-segmented schedule degenerate to one
// segment, which the tuner prices accordingly. op.pc: 0 enter, 1
// receiving, 2 forwarding.
func (t *TProc) bcastChainT(root int, val uint64) (uint64, sim.PollableWait) {
	w, me, P := t.w, t.ID(), t.P()
	tag := w.sel.bcastBase
	vid := (me - root + P) % P
	for {
		switch t.op.pc {
		case 0:
			t.op.acc = val
			if vid != 0 {
				t.op.pc = 1
				continue
			}
			t.op.pc = 2
		case 1:
			v, wt := t.recvCollT(tag)
			if wt != nil {
				return 0, wt
			}
			t.op.acc = v
			t.op.pc = 2
		case 2:
			if vid+1 < P {
				if wt := t.sendCollT((me+1)%P, tag, t.op.acc); wt != nil {
					return 0, wt
				}
			}
			t.op.pc = 0
			return t.op.acc, nil
		}
	}
}

// bcastFlatT has the root send to every other processor directly, in
// processor order: depth 1, serialized on the root's injection pacing.
// op.pc: 0 enter, 1 root fan-out (op.r), 2 receiving.
func (t *TProc) bcastFlatT(root int, val uint64) (uint64, sim.PollableWait) {
	w, me, P := t.w, t.ID(), t.P()
	tag := w.sel.bcastBase
	for {
		switch t.op.pc {
		case 0:
			t.op.acc = val
			if me == root {
				t.op.r = 0
				t.op.pc = 1
				continue
			}
			t.op.pc = 2
		case 1:
			for t.op.r < P {
				q := t.op.r
				if q != root {
					if wt := t.sendCollT(q, tag, t.op.acc); wt != nil {
						return 0, wt
					}
				}
				t.op.r++
			}
			t.op.pc = 0
			return t.op.acc, nil
		case 2:
			v, wt := t.recvCollT(tag)
			if wt != nil {
				return 0, wt
			}
			t.op.pc = 0
			return v, nil
		}
	}
}

// allReduceTreeT adapts the default reduce-broadcast tree (cont.go) to
// the registry's operator-code signature.
func (t *TProc) allReduceTreeT(val uint64, op ReduceOp) (uint64, sim.PollableWait) {
	return t.allReduceTreeFnT(val, op.fn())
}

// allReduceRecDoubleT is recursive doubling (the butterfly): when P is
// not a power of two, the low 2·(P-pof2) processors fold pairwise into
// their even member first; the pof2-sized core then exchanges partials
// with the vid^2^r partner for ⌊log2 P⌋ rounds, after which the folded
// processors receive the result back. Every core processor holds the
// total after the last round — half the tree algorithm's depth. op.pc: 0
// enter, 1 folding out (send), 2 folded out (await result), 3 absorbing
// the fold, 4 exchange send of round op.r, 5 exchange recv, 6 unfold.
func (t *TProc) allReduceRecDoubleT(val uint64, op ReduceOp) (uint64, sim.PollableWait) {
	opFn := op.fn()
	w, me, P := t.w, t.ID(), t.P()
	base := w.sel.arBase
	pof2 := 1 << uint(highestBit(P))
	rem := P - pof2
	unfold := base + 1 + logRounds(P)
	for {
		switch t.op.pc {
		case 0:
			t.op.acc = val
			if me < 2*rem && me&1 == 1 {
				t.op.pc = 1
				continue
			}
			if me < 2*rem {
				t.op.pc = 3
				continue
			}
			t.op.r = 0
			t.op.pc = 4
		case 1:
			if wt := t.sendCollT(me-1, base, t.op.acc); wt != nil {
				return 0, wt
			}
			t.op.pc = 2
		case 2:
			v, wt := t.recvCollT(unfold)
			if wt != nil {
				return 0, wt
			}
			t.op.pc = 0
			return v, nil
		case 3:
			v, wt := t.recvCollT(base)
			if wt != nil {
				return 0, wt
			}
			t.op.acc = opFn(t.op.acc, v)
			t.op.r = 0
			t.op.pc = 4
		case 4:
			if 1<<t.op.r >= pof2 {
				t.op.pc = 6
				continue
			}
			vid := me - rem
			if me < 2*rem {
				vid = me / 2
			}
			pv := vid ^ (1 << t.op.r)
			partner := pv + rem
			if pv < rem {
				partner = 2 * pv
			}
			if wt := t.sendCollT(partner, base+1+t.op.r, t.op.acc); wt != nil {
				return 0, wt
			}
			t.op.pc = 5
		case 5:
			v, wt := t.recvCollT(base + 1 + t.op.r)
			if wt != nil {
				return 0, wt
			}
			t.op.acc = opFn(t.op.acc, v)
			t.op.r++
			t.op.pc = 4
		case 6:
			if me < 2*rem {
				if wt := t.sendCollT(me+1, unfold, t.op.acc); wt != nil {
					return 0, wt
				}
			}
			t.op.pc = 0
			return t.op.acc, nil
		}
	}
}

// allReduceFlatT gathers every operand on processor 0 — through the
// accumulating handler, which combines on arrival so the root stores
// nothing — and fans the total back out directly. Episodes cannot
// overlap: a sender's next contribution is causally behind the result it
// must first receive. op.pc: 0 enter, 1 root gathered, 2 root release
// loop (op.r), 3 operand sent, 4 result received.
func (t *TProc) allReduceFlatT(val uint64, op ReduceOp) (uint64, sim.PollableWait) {
	w, me, P := t.w, t.ID(), t.P()
	gtag := w.sel.arBase
	rtag := w.sel.arBase + 1
	for {
		switch t.op.pc {
		case 0:
			if me == 0 {
				c := t.cell(gtag)
				t.op.pc = 1
				return 0, t.ep.CounterWait(am.WaitBarrier, &c.cnt, c.exp+int64(P-1), "splitc: flat all-reduce gather")
			}
			t.op.pc = 3
		case 1:
			c := t.cell(gtag)
			t.op.acc = op.fn()(val, c.vals[0])
			c.vals[0] = 0
			c.exp += int64(P - 1)
			t.op.r = 1
			t.op.pc = 2
		case 2:
			for t.op.r < P {
				if wt := t.sendCollT(t.op.r, rtag, t.op.acc); wt != nil {
					return 0, wt
				}
				t.op.r++
			}
			t.op.pc = 0
			return t.op.acc, nil
		case 3:
			if wt := t.sendCollAccT(0, gtag, val, op); wt != nil {
				return 0, wt
			}
			t.op.pc = 4
		case 4:
			v, wt := t.recvCollT(rtag)
			if wt != nil {
				return 0, wt
			}
			t.op.pc = 0
			return v, nil
		}
	}
}
