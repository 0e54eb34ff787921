package splitc

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/am"
	"repro/internal/logp"
	"repro/internal/sim"
)

// collPair runs the same program as a blocking body under Run and as a
// task under RunTasks, on twin NOW worlds built with the given selection,
// checks the two drivers agree on results, message counts, barriers, and
// makespan, and returns the per-processor results.
func collPair(t *testing.T, p int, sel Collectives, body func(*Proc, []uint64), mk func([]uint64) func(int) Task) []uint64 {
	t.Helper()
	return collPairOn(t, p, logp.NOW(), sel, body, mk)
}

// collPairOn is collPair on an explicit machine.
func collPairOn(t *testing.T, p int, params logp.Params, sel Collectives, body func(*Proc, []uint64), mk func([]uint64) func(int) Task) []uint64 {
	t.Helper()
	wb, err := NewWorldCfg(Config{Procs: p, Params: params, Seed: 42, Collectives: sel})
	if err != nil {
		t.Fatal(err)
	}
	resB := make([]uint64, p)
	if err := wb.Run(func(pr *Proc) { body(pr, resB) }); err != nil {
		t.Fatalf("blocking: %v", err)
	}

	wc, err := NewWorldCfg(Config{Procs: p, Params: params, Seed: 42, Collectives: sel})
	if err != nil {
		t.Fatal(err)
	}
	resC := make([]uint64, p)
	if err := wc.RunTasks(mk(resC)); err != nil {
		t.Fatalf("continuation: %v", err)
	}

	for i := range resB {
		if resB[i] != resC[i] {
			t.Errorf("proc %d: blocking result %d, continuation %d", i, resB[i], resC[i])
		}
	}
	if sb, sc := wb.Stats().TotalSent(), wc.Stats().TotalSent(); sb != sc {
		t.Errorf("blocking sent %d messages, continuation %d", sb, sc)
	}
	if bb, bc := wb.Stats().Barriers, wc.Stats().Barriers; bb != bc {
		t.Errorf("blocking %d barriers, continuation %d", bb, bc)
	}
	if eb, ec := wb.Elapsed(), wc.Elapsed(); eb != ec {
		t.Errorf("blocking elapsed %v, continuation elapsed %v", eb, ec)
	}
	return resB
}

// ----- barrier program: write to the right neighbor, barrier, read the
// value the left neighbor's (store-completed) write left behind -----

const barrierCheckEpisodes = 3

func barrierCheckBlocking(p *Proc, out []uint64) {
	me, P := p.ID(), p.P()
	g := p.Alloc(1)
	var sum uint64
	for ep := 0; ep < barrierCheckEpisodes; ep++ {
		p.WriteWord(GPtr{Proc: int32((me + 1) % P), Off: g.Off}, uint64(me*10+ep))
		p.Barrier()
		sum = sum*31 + p.Local(g, 1)[0]
	}
	out[me] = sum
}

type barrierCheckTask struct {
	out []uint64
	g   GPtr
	ep  int
	sum uint64
	pc  int
}

func (k *barrierCheckTask) Step(t *TProc) (sim.PollableWait, bool) {
	me, P := t.ID(), t.P()
	for {
		switch k.pc {
		case 0:
			k.g = t.Alloc(1)
			k.pc = 1
		case 1:
			if k.ep >= barrierCheckEpisodes {
				k.out[me] = k.sum
				return nil, true
			}
			if wt := t.WriteWordT(GPtr{Proc: int32((me + 1) % P), Off: k.g.Off}, uint64(me*10+k.ep)); wt != nil {
				return wt, false
			}
			k.pc = 2
		case 2:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.sum = k.sum*31 + t.Local(k.g, 1)[0]
			k.ep++
			k.pc = 1
		}
	}
}

func barrierCheckWant(me, P int) uint64 {
	left := (me - 1 + P) % P
	var sum uint64
	for ep := 0; ep < barrierCheckEpisodes; ep++ {
		sum = sum*31 + uint64(left*10+ep)
	}
	return sum
}

// ----- broadcast program: rotate the root, barrier-separate episodes -----

const bcastCheckEpisodes = 3

func bcastCheckBlocking(p *Proc, out []uint64) {
	me, P := p.ID(), p.P()
	var sum uint64
	for ep := 0; ep < bcastCheckEpisodes; ep++ {
		root := ep % P
		v := p.Broadcast(root, uint64(me*100+ep))
		sum = sum*31 + v
		p.Barrier()
	}
	out[me] = sum
}

type bcastCheckTask struct {
	out []uint64
	ep  int
	sum uint64
	pc  int
}

func (k *bcastCheckTask) Step(t *TProc) (sim.PollableWait, bool) {
	me, P := t.ID(), t.P()
	for {
		switch k.pc {
		case 0:
			if k.ep >= bcastCheckEpisodes {
				k.out[me] = k.sum
				return nil, true
			}
			v, wt := t.BroadcastT(k.ep%P, uint64(me*100+k.ep))
			if wt != nil {
				return wt, false
			}
			k.sum = k.sum*31 + v
			k.pc = 1
		case 1:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.ep++
			k.pc = 0
		}
	}
}

func bcastCheckWant(P int) uint64 {
	var sum uint64
	for ep := 0; ep < bcastCheckEpisodes; ep++ {
		root := ep % P
		sum = sum*31 + uint64(root*100+ep)
	}
	return sum
}

// ----- all-reduce program: alternating operators, back-to-back episodes
// (no separating barrier — the algorithms are self-separating, and the
// butterfly's two-deep operand ring is exactly what this stresses) -----

const arCheckEpisodes = 4

func arCheckBlocking(p *Proc, out []uint64) {
	me := p.ID()
	var sum uint64
	for ep := 0; ep < arCheckEpisodes; ep++ {
		op := OpSum
		if ep%2 == 1 {
			op = OpMax
		}
		v := p.AllReduceOp(uint64(me+1)*uint64(ep+1), op)
		sum = sum*31 + v
	}
	out[me] = sum
}

type arCheckTask struct {
	out []uint64
	ep  int
	sum uint64
}

func (k *arCheckTask) Step(t *TProc) (sim.PollableWait, bool) {
	me := t.ID()
	for {
		if k.ep >= arCheckEpisodes {
			k.out[me] = k.sum
			return nil, true
		}
		op := OpSum
		if k.ep%2 == 1 {
			op = OpMax
		}
		v, wt := t.AllReduceOpT(uint64(me+1)*uint64(k.ep+1), op)
		if wt != nil {
			return wt, false
		}
		k.sum = k.sum*31 + v
		k.ep++
	}
}

func arCheckWant(P int) uint64 {
	var sum uint64
	for ep := 0; ep < arCheckEpisodes; ep++ {
		var v uint64
		if ep%2 == 1 {
			v = uint64(P) * uint64(ep+1) // max of (i+1)(ep+1)
		} else {
			v = uint64(P*(P+1)/2) * uint64(ep+1) // sum of (i+1)(ep+1)
		}
		sum = sum*31 + v
	}
	return sum
}

// TestCollectiveAlgorithmEquivalence is the cross-algorithm property
// test: every registered algorithm, at several processor counts
// (including non-powers of two), must produce the same values as the
// default — and its continuation twin must match its blocking form in
// results, message counts, and virtual makespan.
func TestCollectiveAlgorithmEquivalence(t *testing.T) {
	for _, P := range []int{1, 2, 3, 8, 13, 16} {
		P := P
		for _, alg := range BarrierAlgorithms() {
			t.Run(fmt.Sprintf("barrier/%s/P%d", alg, P), func(t *testing.T) {
				out := collPair(t, P, Collectives{Barrier: alg},
					barrierCheckBlocking,
					func(res []uint64) func(int) Task {
						return func(int) Task { return &barrierCheckTask{out: res} }
					})
				for me, got := range out {
					if want := barrierCheckWant(me, P); got != want {
						t.Errorf("proc %d: result %d, want %d", me, got, want)
					}
				}
			})
		}
		for _, alg := range BroadcastAlgorithms() {
			t.Run(fmt.Sprintf("bcast/%s/P%d", alg, P), func(t *testing.T) {
				out := collPair(t, P, Collectives{Broadcast: alg},
					bcastCheckBlocking,
					func(res []uint64) func(int) Task {
						return func(int) Task { return &bcastCheckTask{out: res} }
					})
				for me, got := range out {
					if want := bcastCheckWant(P); got != want {
						t.Errorf("proc %d: result %d, want %d", me, got, want)
					}
				}
			})
		}
		for _, alg := range AllReduceAlgorithms() {
			t.Run(fmt.Sprintf("ar/%s/P%d", alg, P), func(t *testing.T) {
				out := collPair(t, P, Collectives{AllReduce: alg},
					arCheckBlocking,
					func(res []uint64) func(int) Task {
						return func(int) Task { return &arCheckTask{out: res} }
					})
				for me, got := range out {
					if want := arCheckWant(P); got != want {
						t.Errorf("proc %d: result %d, want %d", me, got, want)
					}
				}
			})
		}
	}
}

// ----- back-to-back broadcasts: P-1 episodes from one root with nothing
// between them, Sample sort's splitter distribution. A fast root runs
// several episodes ahead of a slow leaf, so operands outnumber the cell's
// two ring slots and the overflow FIFO has to hold the rest in order. -----

func bcastBurstBlocking(p *Proc, out []uint64) {
	var sum uint64
	for i := 0; i < p.P()-1; i++ {
		sum = sum*31 + p.Broadcast(0, uint64(1000+i))
	}
	out[p.ID()] = sum
}

type bcastBurstTask struct {
	out []uint64
	i   int
	sum uint64
}

func (k *bcastBurstTask) Step(t *TProc) (sim.PollableWait, bool) {
	for k.i < t.P()-1 {
		v, wt := t.BroadcastT(0, uint64(1000+k.i))
		if wt != nil {
			return wt, false
		}
		k.sum = k.sum*31 + v
		k.i++
	}
	k.out[t.ID()] = k.sum
	return nil, true
}

// TestBackToBackBroadcasts pins that successive broadcasts need no
// separating barrier on either driver, for every broadcast algorithm, on
// the baseline machine and under added overhead (which widens the skew
// between root and leaves).
func TestBackToBackBroadcasts(t *testing.T) {
	slow := logp.NOW()
	slow.DeltaO = 10 * sim.Microsecond
	for _, m := range []struct {
		name   string
		params logp.Params
	}{{"NOW", logp.NOW()}, {"do10", slow}} {
		for _, alg := range BroadcastAlgorithms() {
			for _, P := range []int{2, 3, 8, 13, 64} {
				t.Run(fmt.Sprintf("%s/%s/P%d", m.name, alg, P), func(t *testing.T) {
					out := collPairOn(t, P, m.params, Collectives{Broadcast: alg},
						bcastBurstBlocking,
						func(res []uint64) func(int) Task {
							return func(int) Task { return &bcastBurstTask{out: res} }
						})
					var want uint64
					for i := 0; i < P-1; i++ {
						want = want*31 + uint64(1000+i)
					}
					for me, got := range out {
						if got != want {
							t.Errorf("proc %d: result %d, want %d", me, got, want)
						}
					}
				})
			}
		}
	}
}

// TestOperandOverflowKeepsPerTagOrder drives the operand cells directly:
// operands of two tags arrive interleaved, five deep each — past the
// two-slot rings into the shared overflow FIFO — and are consumed in a
// different interleaving; each tag must still come out in arrival order.
func TestOperandOverflowKeepsPerTagOrder(t *testing.T) {
	w, err := NewWorld(2, logp.NOW(), 1)
	if err != nil {
		t.Fatal(err)
	}
	w.initHandlers()
	tp := &TProc{w: w, ep: w.m.Endpoint(0)}
	w.tp = []*TProc{tp, nil}
	const tagA, tagB, depth = 0, 1, 5
	for i := 0; i < depth; i++ {
		w.hColl(tp.ep, nil, am.Args{tagA, uint64(100 + i)})
		w.hColl(tp.ep, nil, am.Args{tagB, uint64(200 + i)})
	}
	if got, want := len(tp.spill), 2*(depth-2); got != want {
		t.Fatalf("%d operands spilled, want %d", got, want)
	}
	for i := 0; i < depth; i++ {
		// B before A, the reverse of arrival: removal from the middle.
		if got, want := tp.popOperand(tagB), uint64(200+i); got != want {
			t.Errorf("tag B operand %d = %d, want %d", i, got, want)
		}
		if got, want := tp.popOperand(tagA), uint64(100+i); got != want {
			t.Errorf("tag A operand %d = %d, want %d", i, got, want)
		}
	}
	if len(tp.spill) != 0 {
		t.Errorf("%d operands left in the overflow FIFO", len(tp.spill))
	}
}

// ----- cell-address stability: a processor parked on one tag's operand
// cell takes an operand for a tag in a later block that it has never
// touched. -----

// cellStableGap spaces the broadcast root's two sends by far more than a
// round trip, so the gather record that processor 0 sends as soon as it
// has the value reaches processor 1 first.
const cellStableGap = 100 * sim.Microsecond

func cellStableBlocking(p *Proc, out []uint64) {
	v := p.Broadcast(2, 7)
	out[p.ID()] = cellStableResult(v, p.Gather(1, uint64(100+p.ID())))
}

type cellStableTask struct {
	out []uint64
	v   uint64
	pc  int
}

func (k *cellStableTask) Step(t *TProc) (sim.PollableWait, bool) {
	if k.pc == 0 {
		v, wt := t.BroadcastT(2, 7)
		if wt != nil {
			return wt, false
		}
		k.v, k.pc = v, 1
	}
	g, wt := t.GatherT(1, uint64(100+t.ID()))
	if wt != nil {
		return wt, false
	}
	k.out[t.ID()] = cellStableResult(k.v, g)
	return nil, true
}

func cellStableResult(v uint64, gathered []uint64) uint64 {
	for _, x := range gathered {
		v = v*31 + x
	}
	return v
}

// TestParkedCellSurvivesNewTags pins that operand cells never move. At
// P = 3 the binomial broadcast from processor 2 reaches processor 0 in
// round 0 and processor 1 in round 1, one (large) gap later. Processor 0
// goes straight on to the gather rooted at processor 1, whose record
// lands on processor 1 while it is still parked on its broadcast tag,
// and is the first operand processor 1 ever sees for the gather tag, a
// block further up the tag space. A cell table that grows by copying
// strands the parked wait on the old copy of the broadcast cell, and the
// run deadlocks.
func TestParkedCellSurvivesNewTags(t *testing.T) {
	params := logp.NOW()
	params.Gap = cellStableGap
	const P = 3
	out := collPairOn(t, P, params, Collectives{Broadcast: "binomial"},
		cellStableBlocking,
		func(res []uint64) func(int) Task {
			return func(int) Task { return &cellStableTask{out: res} }
		})
	for me, got := range out {
		want := uint64(7)
		if me == 1 {
			want = cellStableResult(7, []uint64{100, 101, 102})
		}
		if got != want {
			t.Errorf("proc %d: result %d, want %d", me, got, want)
		}
	}
}

// TestOperandCellSize pins the operand cell at 32 bytes; there is one per
// touched tag per processor.
func TestOperandCellSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(collCell{}); got != 32 {
		t.Errorf("collCell is %d bytes, want 32", got)
	}
}

// TestDefaultSelectionLayout pins the zero-value selection's tag-space
// layout to the historical fixed arithmetic (reduce rounds, ar-bcast
// rounds, bcast rounds, scan rounds, gather, all-to-all), which is what
// keeps pre-engine results byte-identical.
func TestDefaultSelectionLayout(t *testing.T) {
	for _, p := range []int{1, 2, 16, 32, 100} {
		sel, err := resolveCollectives(Collectives{}, p, logp.NOW())
		if err != nil {
			t.Fatal(err)
		}
		R := logRounds(p)
		if sel.arBase != 0 || sel.bcastBase != 2*R || sel.scanBase != 3*R ||
			sel.gatherBase != 4*R || sel.a2aBase != 4*R+1 || sel.numTags != 4*R+2 {
			t.Errorf("p=%d: layout %+v does not match historical tags (R=%d)", p, sel, R)
		}
		if sel.barSlots != R {
			t.Errorf("p=%d: barSlots %d, want %d", p, sel.barSlots, R)
		}
		want := Collectives{Barrier: "dissemination", Broadcast: "binomial", AllReduce: "tree"}
		if sel.names != want {
			t.Errorf("p=%d: default names %+v, want %+v", p, sel.names, want)
		}
	}
}

// TestAutoSelectionResolvesThroughTuner pins that CollAuto fields
// resolve to exactly the tuner's pick for the world's own machine.
func TestAutoSelectionResolvesThroughTuner(t *testing.T) {
	params := []logp.Params{
		logp.NOW(),
		func() logp.Params { p := logp.NOW(); p.DeltaO = 50 * sim.Microsecond; return p }(),
		func() logp.Params { p := logp.NOW(); p.DeltaL = 100 * sim.Microsecond; return p }(),
	}
	for _, pm := range params {
		for _, p := range []int{2, 4, 16, 32} {
			w, err := NewWorldCfg(Config{
				Procs: p, Params: pm, Seed: 1,
				Collectives: Collectives{Barrier: CollAuto, Broadcast: CollAuto, AllReduce: CollAuto},
			})
			if err != nil {
				t.Fatal(err)
			}
			pick := Select(p, 8, pm)
			got := w.CollectiveNames()
			if got != pick {
				t.Errorf("p=%d: world resolved %+v, tuner picked %+v", p, got, pick)
			}
		}
	}
}

// TestUnknownAlgorithmRejected pins construction-time validation.
func TestUnknownAlgorithmRejected(t *testing.T) {
	for _, sel := range []Collectives{
		{Barrier: "bogus"},
		{Broadcast: "bogus"},
		{AllReduce: "bogus"},
	} {
		if _, err := NewWorldCfg(Config{Procs: 4, Params: logp.NOW(), Seed: 1, Collectives: sel}); err == nil {
			t.Errorf("selection %+v: expected construction error", sel)
		}
	}
}

// TestCollectivesString pins the run-key rendering.
func TestCollectivesString(t *testing.T) {
	if s := (Collectives{}).String(); s != "" {
		t.Errorf("zero value renders %q, want empty", s)
	}
	got := Collectives{Barrier: "flat"}.String()
	want := "bar=flat,bc=binomial,ar=tree"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
