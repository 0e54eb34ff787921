package splitc

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/am"
	"repro/internal/sim"
)

// The Split-C primitives, implemented once, in continuation form.
//
// Every primitive is a resumptive method on TProc: it records its
// progress in the TProc's single op cell and is called again, with
// identical arguments, after every wait it returns has completed. The
// calling convention is uniform:
//
//	v, wt := t.ReadWordT(g)
//	if wt != nil {
//		return wt, false // park; re-call ReadWordT on re-entry
//	}
//
// Two kinds of body call these methods. RunTasks steps a Task per
// processor on sim.RunResumables — no stacks, which is what scales to a
// million processors; a Task returns each wait to the engine. Run gives
// each processor a stack and the blocking Proc API, whose every method is
// the loop above with sim.Proc.Await in place of the return (see
// Proc.wait). Either way the sequence a primitive executes — its sends
// with their classes, wait conditions, and the instrumentation hooks
// around them — is this file's, its poll points and window stalls are
// the endpoint's one request preamble (am.Endpoint.RequestT), and the
// engine's one scheduler loop takes each wait the same way whichever
// kind of body named it, so the two cannot charge or interleave
// differently. See
// DESIGN.md §11; the twin tests still run both under the NOW parameter
// set, whose clustered arrivals would expose any poll-point divergence.
//
// One primitive may be in flight per processor at a time (one body, and
// handlers may not wait). Primitives reset the op cell on completion, so
// sequential composition needs no coordination beyond the caller's own
// program counter.
//
// Collectives keep their operands in per-processor cells: a two-deep
// value ring plus cumulative counters per tag. The all-reduce algorithms
// and the scan are self-separating — their own reduce/recv dependencies
// plus per-pair FIFO delivery bound the operands in flight per tag to two
// (the recursive-doubling butterfly's partner can run one episode ahead;
// everything else stays at one) — so the ring is all they ever touch. A
// broadcast has no such back-pressure: P-1 of them in a row (Sample
// sort's splitters) let a fast root run several episodes ahead of a slow
// leaf, and gather lands P-1 operands on one tag. An operand that finds
// its ring full therefore goes to the processor's overflow FIFO and moves
// into the ring as earlier operands are consumed. The flat all-reduce's
// root instead combines its P-1 operands on arrival (hCollAcc), so it
// stores nothing.

// Task is the continuation form of an SPMD body: Step is called
// repeatedly, and must either return a wait to park on (done=false) or
// finish (done=true). Returning (nil, false) panics — a task that cannot
// finish must name what it waits for. Use sim.Yield to reschedule
// without a condition.
type Task interface {
	Step(t *TProc) (wait sim.PollableWait, done bool)
}

// TaskFunc adapts a plain function to Task.
type TaskFunc func(t *TProc) (sim.PollableWait, bool)

// Step implements Task.
func (f TaskFunc) Step(t *TProc) (sim.PollableWait, bool) { return f(t) }

// TProc is one processor's view of the world — identity, global memory,
// and the resumptive primitives — as a Task sees it under RunTasks. Proc
// embeds it for bodies running under Run.
type TProc struct {
	w    *World
	ep   *am.Endpoint
	sp   *sim.Proc
	task Task
	done bool // task finished; terminal barrier may still be running

	// op is the in-flight primitive's state cell. pc is the primitive's
	// own program counter, sub the leaf (round-trip/recv) sub-counter,
	// and the rest is scratch a primitive keeps across parks. The request
	// preamble's state is the endpoint's (am.Endpoint.RequestT).
	op opState

	// cells indexes the collective operand cells by tag - cellLo, from
	// the lowest tag touched so far to the end of the world's tag space
	// (laid out in coll.go); nil before the first collective. Each cell
	// is allocated on its tag's first touch (see cell). spill is the
	// overflow FIFO for operands that arrived to a full ring, in arrival
	// order across all tags; nil until the first overflow.
	cells  []*collCell
	cellLo int
	spill  []spilled

	failedLocks int64

	phaseName  string   // active phase label ("" = unlabeled; see phase.go)
	phaseStart sim.Time // clock at the last EnterPhase
}

// opState is the per-processor primitive state cell. One primitive is in
// flight at a time, so a single cell (rather than a stack) suffices.
type opState struct {
	pc    int    // primitive program counter (0 = no primitive in flight)
	sub   int    // leaf sub-machine counter (roundTripT / recvCollT)
	r     int    // round or fragment cursor
	bpc   int    // second program counter, for a primitive composed with one that owns pc
	br    int    // round cursor belonging to bpc
	acc   uint64 // accumulator / round-trip result
	flag  int64  // round-trip completion counter (CounterWait target 1)
	tgt   int64  // barrier episode target
	recvd int64  // bulk-get words received (cumulative per call)
	out   []uint64
}

// collCell is one collective tag's operand slot: cnt counts operands ever
// received and exp operands ever consumed; vals is a two-deep ring holding
// operands exp and exp+1 (indexed mod 2), and operands beyond those wait,
// in order, in the processor's spill FIFO. A tag fed through the
// combining handler hCollAcc (the flat all-reduce's gather) instead
// accumulates its operands in vals[0] and uses cnt/exp as pure counters;
// a tag uses one delivery mode or the other, never both. The cell is 32
// bytes and there is one per touched tag per processor, which is why the
// overflow storage lives on the processor and not here.
type collCell struct {
	vals [2]uint64
	cnt  int64
	exp  int64
}

// spilled is one overflowed collective operand.
type spilled struct {
	tag int
	val uint64
}

// RunTasks executes one Task per processor on the resumable runtime and
// returns when all have finished. Like Run, a terminal barrier is
// implied so all in-flight communication quiesces. mk is called once per
// processor, in processor order, before the run starts.
func (w *World) RunTasks(mk func(id int) Task) error {
	w.initHandlers()
	P := w.P()
	w.tp = make([]*TProc, P)
	bodies := make([]sim.Resumable, P)
	for i := 0; i < P; i++ {
		t := &TProc{w: w, ep: w.m.Endpoint(i), task: mk(i)}
		w.tp[i] = t
		bodies[i] = t
	}
	err := w.eng.RunResumables(bodies)
	w.elapsed = w.eng.MaxClock()
	return err
}

// Resume implements sim.Resumable: drive the task, then the implied
// terminal barrier, then close the open phase as Run does.
func (t *TProc) Resume(p *sim.Proc) (sim.PollableWait, bool) {
	t.sp = p
	if !t.done {
		wt, d := t.task.Step(t)
		if wt != nil {
			return wt, false
		}
		if !d {
			panic(fmt.Sprintf("splitc: proc %d Task.Step returned neither a wait nor done", t.ep.ID()))
		}
		t.done = true
	}
	if wt := t.BarrierT(); wt != nil {
		return wt, false
	}
	t.closePhase()
	return nil, true
}

// initHandlers creates the world's handler set once. Handlers close
// over the world only; per-processor results are routed through the
// receiving endpoint's TProc, so the steady-state send paths allocate
// nothing.
func (w *World) initHandlers() {
	if w.hWrite != nil {
		return
	}
	w.hWrite = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		w.mem[a[0]>>32][uint32(a[0])] = a[1]
	}
	w.hBarrier = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		w.barrierOf(ep.ID()).recvCount[a[0]]++
	}
	w.hColl = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		t := w.tp[ep.ID()]
		c := t.cell(int(a[0]))
		if c.cnt-c.exp < 2 {
			c.vals[c.cnt&1] = a[1]
		} else {
			t.spill = append(t.spill, spilled{tag: int(a[0]), val: a[1]})
		}
		c.cnt++
	}
	// hCollAcc combines the operand into the cell on arrival (a[2] is
	// the ReduceOp code); used where one consumer reduces a P-1 fan-in
	// every episode, so nothing needs storing.
	w.hCollAcc = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		c := w.tp[ep.ID()].cell(int(a[0]))
		c.vals[0] = reduceApply(ReduceOp(a[2]), c.vals[0], a[1])
		c.cnt++
	}
	// hReply lands every short round-trip reply: the requester's op cell
	// is the destination (one round trip in flight per processor).
	w.hReply = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		t := w.tp[ep.ID()]
		t.op.acc = a[0]
		t.op.flag++
	}
	w.hReadReq = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		v := w.mem[a[0]>>32][uint32(a[0])]
		ep.Reply(tok, w.hReply, am.Args{v})
	}
	w.hFetchAdd = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		ptr := &w.mem[a[0]>>32][uint32(a[0])]
		v := *ptr
		*ptr += a[1]
		ep.Reply(tok, w.hReply, am.Args{v})
	}
	w.hCAS = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		ptr := &w.mem[a[0]>>32][uint32(a[0])]
		var res uint64
		if *ptr == a[1] {
			*ptr = a[2]
			res = 1
		}
		ep.Reply(tok, w.hReply, am.Args{res})
	}
	w.hBulkPut = func(ep *am.Endpoint, tok *am.Token, a am.Args, data []byte) {
		dst := UnpackGPtr(a[0])
		mem := w.mem[dst.Proc]
		for i := 0; i < len(data)/8; i++ {
			mem[int(dst.Off)+i] = binary.LittleEndian.Uint64(data[8*i:])
		}
	}
	w.hBulkGetRep = func(ep *am.Endpoint, tok *am.Token, a am.Args, data []byte) {
		t := w.tp[ep.ID()]
		base := int(a[0])
		for i := 0; i < len(data)/8; i++ {
			t.op.out[base+i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		t.op.recvd += int64(len(data) / 8)
	}
	w.hBulkGetReq = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		from := UnpackGPtr(a[0])
		cnt := int(a[1])
		mem := w.mem[from.Proc]
		buf := make([]byte, 8*cnt)
		for i := 0; i < cnt; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], mem[int(from.Off)+i])
		}
		ep.ReplyBulk(tok, w.hBulkGetRep, am.Args{a[2]}, buf)
	}
}

// ----- identity, clock and memory -----

// ID returns the processor number in [0, P).
func (t *TProc) ID() int { return t.ep.ID() }

// P returns the processor count.
func (t *TProc) P() int { return t.w.P() }

// World returns the enclosing world.
func (t *TProc) World() *World { return t.w }

// EP exposes the raw Active Message endpoint for applications that need
// custom message types (for example Mur-phi's state distribution).
func (t *TProc) EP() *am.Endpoint { return t.ep }

// Rand returns the processor's deterministic PRNG.
func (t *TProc) Rand() *rand.Rand { return t.sp.Rand() }

// Now returns the processor's virtual clock.
func (t *TProc) Now() sim.Time { return t.sp.Clock() }

// Compute charges local computation time (scaled by the machine's CPU
// factor).
func (t *TProc) Compute(d sim.Time) { t.ep.Compute(d) }

// ComputeUs charges local computation time given in microseconds.
func (t *TProc) ComputeUs(us float64) { t.ep.Compute(sim.FromMicros(us)) }

// Alloc reserves n words in the calling processor's global heap and
// returns a pointer to them. Allocation is local; share pointers by
// message or collectives.
func (t *TProc) Alloc(n int) GPtr {
	id := t.ID()
	off := len(t.w.mem[id])
	t.w.mem[id] = append(t.w.mem[id], make([]uint64, n)...)
	return GPtr{Proc: int32(id), Off: int32(off)}
}

// Local returns a direct slice view of n words at g, which must live on
// the calling processor.
func (t *TProc) Local(g GPtr, n int) []uint64 {
	if int(g.Proc) != t.ID() {
		panic(fmt.Sprintf("splitc: Local(%v) on proc %d", g, t.ID()))
	}
	return t.w.mem[g.Proc][g.Off : int(g.Off)+n]
}

// CheckBounds panics with a helpful message when a global pointer is out
// of range for n words; applications use it in debug paths.
func (t *TProc) CheckBounds(g GPtr, n int) {
	heap := t.w.mem[g.Proc]
	if g.Off < 0 || int(g.Off)+n > len(heap) {
		panic(fmt.Sprintf("splitc: %v + %d words out of range (heap %d words)", g, n, len(heap)))
	}
}

// FailedLockAttempts reports how many TryLock retries Lock has burned —
// the paper instruments Barnes with exactly this counter.
func (t *TProc) FailedLockAttempts() int64 { return t.failedLocks }

func (t *TProc) fragWords() int { return t.w.m.Params().FragmentSize / 8 }

// cell returns the collective operand cell for tag, allocating it on the
// tag's first touch. The layout reserves a block for every collective,
// but a program calls only some of them, and a binomial broadcast's
// receiver touches one round of its block: scale-radix at P = 10k
// touches 13 of 58 tags per processor. A cell never moves once
// allocated: a parked recvCollT, gather or all-to-all holds
// &cell.cnt in its wait while operands for other tags, untouched until
// then, arrive and extend the index. Only the index moves (widenCells).
func (t *TProc) cell(tag int) *collCell {
	i := tag - t.cellLo
	if i < 0 || i >= len(t.cells) {
		t.widenCells(tag)
		i = tag - t.cellLo
	}
	c := t.cells[i]
	if c == nil {
		c = new(collCell)
		t.cells[i] = c
	}
	return c
}

// widenCells re-bases the cell index at tag, which lies below every tag
// touched so far. The index always reaches the end of the tag space, and
// a collective touches its own block's tags in ascending round order, so
// this runs about once per block a processor enters below the ones it
// has used, and copies only pointers.
func (t *TProc) widenCells(tag int) {
	idx := make([]*collCell, t.w.sel.numTags-tag)
	if t.cells != nil {
		copy(idx[t.cellLo-tag:], t.cells)
	}
	t.cells, t.cellLo = idx, tag
}

// ----- leaf sub-machines -----

// The GAM request preamble — poll, then park on a full window — is the
// endpoint's (am.Endpoint.RequestT and StoreT): the primitives below send
// through it and keep none of its state.

// roundTripT issues a request and waits for its short reply; the reply
// value lands in op.acc via hReply. op.sub: 0 fresh or inside the
// endpoint's preamble, 1 parked on the reply.
func (t *TProc) roundTripT(dst int, class am.Class, h am.Handler, a am.Args, kind am.WaitKind, reason string) (uint64, sim.PollableWait) {
	if t.op.sub == 1 {
		t.op.sub = 0
		return t.op.acc, nil
	}
	t.op.flag = 0
	if wt := t.ep.RequestT(dst, class, h, a); wt != nil {
		return 0, wt
	}
	// The reply is at least a round trip away; the wait can never be
	// ready at this instant, so park unconditionally.
	t.op.sub = 1
	return 0, t.ep.CounterWait(kind, &t.op.flag, 1, reason)
}

// sendCollT ships one operand word to dst under tag.
func (t *TProc) sendCollT(dst, tag int, val uint64) sim.PollableWait {
	return t.ep.RequestT(dst, am.ClassSync, t.w.hColl, am.Args{uint64(tag), val})
}

// sendCollAccT ships one operand word for arrival-time combination
// under op (the flat all-reduce's gather leg).
func (t *TProc) sendCollAccT(dst, tag int, val uint64, op ReduceOp) sim.PollableWait {
	return t.ep.RequestT(dst, am.ClassSync, t.w.hCollAcc, am.Args{uint64(tag), val, uint64(op)})
}

// recvCollT consumes the next operand under tag, waiting if it has not
// arrived. op.sub: 0 fresh, 2 parked on the cell.
func (t *TProc) recvCollT(tag int) (uint64, sim.PollableWait) {
	if t.op.sub == 2 {
		t.op.sub = 0
		return t.popOperand(tag), nil
	}
	// Park unconditionally: the scheduler tests the wait only once every
	// processor at a smaller (clock, id) has run. An operand that has
	// already arrived satisfies it on that first test without advancing
	// the clock.
	c := t.cell(tag)
	t.op.sub = 2
	return 0, t.ep.CounterWait(am.WaitBarrier, &c.cnt, c.exp+1, "splitc: collective recv")
}

// popOperand consumes tag's oldest arrived operand. The ring slot it
// frees belongs to operand exp+2, which — if it has arrived — is the
// oldest entry under tag in the spill FIFO.
func (t *TProc) popOperand(tag int) uint64 {
	c := t.cell(tag)
	v := c.vals[c.exp&1]
	if c.cnt-c.exp > 2 {
		c.vals[c.exp&1] = t.unspill(tag)
	}
	c.exp++
	return v
}

// unspill removes and returns the oldest overflowed operand under tag.
func (t *TProc) unspill(tag int) uint64 {
	for i, s := range t.spill {
		if s.tag != tag {
			continue
		}
		if i == 0 {
			t.spill = t.spill[1:]
		} else {
			t.spill = append(t.spill[:i], t.spill[i+1:]...)
		}
		return s.val
	}
	panic("splitc: operand counters and overflow FIFO disagree")
}

// ----- primitives -----

// WriteWordT is WriteWord: one pipelined short store, stalling only on a
// full window. A nil return means the store was issued.
func (t *TProc) WriteWordT(g GPtr, v uint64) sim.PollableWait {
	if int(g.Proc) == t.ID() {
		*t.w.word(g) = v
		return nil
	}
	return t.ep.RequestT(int(g.Proc), am.ClassWrite, t.w.hWrite, am.Args{g.Pack(), v})
}

// ReadWordT is ReadWord: a blocking remote read, one request + reply.
func (t *TProc) ReadWordT(g GPtr) (uint64, sim.PollableWait) {
	if int(g.Proc) == t.ID() {
		return *t.w.word(g), nil
	}
	return t.roundTripT(int(g.Proc), am.ClassRead, t.w.hReadReq, am.Args{g.Pack()}, am.WaitRead, "splitc: blocking read")
}

// StoreSyncT is StoreSync: wait until every issued request is acked.
// op.pc: 0 fresh, 1 parked on quiescence.
func (t *TProc) StoreSyncT() sim.PollableWait {
	if t.op.pc == 1 {
		t.op.pc = 0
		return nil
	}
	t.op.pc = 1
	return t.ep.QuiesceWait()
}

// FetchAddT is FetchAdd: an atomic remote add returning the old value.
func (t *TProc) FetchAddT(g GPtr, delta uint64) (uint64, sim.PollableWait) {
	if int(g.Proc) == t.ID() {
		ptr := t.w.word(g)
		old := *ptr
		*ptr += delta
		return old, nil
	}
	return t.roundTripT(int(g.Proc), am.ClassSync, t.w.hFetchAdd, am.Args{g.Pack(), delta}, am.WaitLock, "splitc: fetch-add")
}

// CompareSwapT is CompareSwap: one compare-and-swap round trip.
func (t *TProc) CompareSwapT(g GPtr, old, next uint64) (bool, sim.PollableWait) {
	if int(g.Proc) == t.ID() {
		ptr := t.w.word(g)
		if *ptr == old {
			*ptr = next
			return true, nil
		}
		return false, nil
	}
	v, wt := t.roundTripT(int(g.Proc), am.ClassSync, t.w.hCAS, am.Args{g.Pack(), old, next}, am.WaitLock, "splitc: compare-swap")
	if wt != nil {
		return false, wt
	}
	return v == 1, nil
}

// lockSpinCost is the charged cost of one local test-and-set retry
// iteration (load, branch, backoff) in the Lock spin loop.
const lockSpinCost = 200 * sim.Nanosecond

// LockT is Lock: spin on a test-and-set (CompareSwapT from 0 to 1) until
// acquired, charging the spin cost and polling between retries so peers
// (in particular the holder) can run. op.pc: 0 enter, 1 trying, 2
// polling after a failed attempt.
func (t *TProc) LockT(g GPtr) sim.PollableWait {
	for {
		switch t.op.pc {
		case 0:
			t.ep.MarkSyncEnter(am.RegionLock)
			t.op.pc = 1
		case 1:
			got, wt := t.CompareSwapT(g, 0, 1)
			if wt != nil {
				return wt
			}
			if got {
				t.ep.MarkSyncExit(am.RegionLock)
				t.op.pc = 0
				return nil
			}
			t.failedLocks++
			t.ep.Compute(lockSpinCost)
			t.op.pc = 2
		case 2:
			// A spinning processor still polls, or remote test-and-set
			// requests to it could never be answered.
			if wt := t.ep.PollT(); wt != nil {
				return wt
			}
			t.op.pc = 1
		}
	}
}

// UnlockT is Unlock: release the lock word with a pipelined store.
func (t *TProc) UnlockT(g GPtr) sim.PollableWait { return t.WriteWordT(g, 0) }

// barrierRounds is the op.pc state in which BarrierT hands over to the
// selected algorithm's rounds; each algorithm numbers its later states
// above it.
const barrierRounds = 2

// BarrierT is Barrier, and the one frame every barrier algorithm runs
// in: enter the barrier region, store-sync (Split-C barriers imply store
// completion), then — at P > 1 — open the next episode and run the world's
// selected algorithm's rounds; processor 0 counts the episode, and the
// region closes. op.pc: 0 enter, 1 parked in the store sync (StoreSyncT),
// barrierRounds and above the algorithm's rounds.
func (t *TProc) BarrierT() sim.PollableWait {
	w, me := t.w, t.ID()
	if t.op.pc < barrierRounds {
		if t.op.pc == 0 {
			t.ep.MarkSyncEnter(am.RegionBarrier)
		}
		if wt := t.StoreSyncT(); wt != nil {
			return wt
		}
		if t.P() == 1 {
			w.m.Stats().CountBarrier()
			t.ep.MarkSyncExit(am.RegionBarrier)
			return nil
		}
		bs := w.barrierOf(me)
		bs.episodes++
		t.op.tgt, t.op.r, t.op.pc = bs.episodes, 0, barrierRounds
	}
	if wt := w.sel.barrier.runT(t); wt != nil {
		return wt
	}
	if me == 0 {
		w.m.Stats().CountBarrier()
	}
	t.ep.MarkSyncExit(am.RegionBarrier)
	t.op.pc = 0
	return nil
}

// barrierDissemT is the dissemination barrier's rounds: in round r the
// processor notifies (id+2^r) mod P and waits for the notification from
// (id-2^r) mod P. ⌈log2 P⌉ rounds of short sync messages; round-trip
// free but latency-sensitive.
//
// Round counters are cumulative, which makes the algorithm robust to
// processors being a full episode apart: per-pair FIFO delivery means
// "count ≥ episode" implies all earlier episodes arrived too.
//
// op.pc: barrierRounds round dispatch (op.r), 3 round notification
// received.
func (t *TProc) barrierDissemT() sim.PollableWait {
	w, me, P := t.w, t.ID(), t.P()
	for {
		switch t.op.pc {
		case barrierRounds:
			if 1<<t.op.r >= P {
				return nil
			}
			dst := (me + 1<<t.op.r) % P
			if wt := t.ep.RequestT(dst, am.ClassSync, w.hBarrier, am.Args{uint64(t.op.r)}); wt != nil {
				return wt
			}
			bs := w.barrierOf(me)
			t.op.pc = 3
			return t.ep.CounterWait(am.WaitBarrier, &bs.recvCount[t.op.r], t.op.tgt, "splitc: barrier")
		case 3:
			t.op.r++
			t.op.pc = barrierRounds
		}
	}
}

// bcastTreeT is the binomial broadcast sub-machine shared by the tree
// all-reduce and the binomial broadcast. base is the collective's tag
// block (tag base+r for round r) so different collectives don't
// interleave. Virtual ids are rotated so the root plays id 0: vid
// receives in the round matching its highest set bit and forwards in
// every later round r to vid+2^r. The value travels in op.acc (the root
// stores it there before the first call). op.bpc: 0 enter, 1 receiving, 2
// forwarding (op.br round cursor).
func (t *TProc) bcastTreeT(root int, base int) (uint64, sim.PollableWait) {
	me, P := t.ID(), t.P()
	rounds := logRounds(P)
	vid := (me - root + P) % P
	for {
		switch t.op.bpc {
		case 0:
			if vid != 0 {
				t.op.br = highestBit(vid)
				t.op.bpc = 1
				continue
			}
			t.op.br = 0
			t.op.bpc = 2
		case 1:
			v, wt := t.recvCollT(base + t.op.br)
			if wt != nil {
				return 0, wt
			}
			t.op.acc = v
			t.op.br++
			t.op.bpc = 2
		case 2:
			for t.op.br < rounds {
				r := t.op.br
				child := vid + 1<<r
				if vid < 1<<r && child < P {
					if wt := t.sendCollT((child+root)%P, base+r, t.op.acc); wt != nil {
						return 0, wt
					}
				}
				t.op.br++
			}
			t.op.bpc = 0
			return t.op.acc, nil
		}
	}
}

// AllReduceT is AllReduce: the reduce-broadcast tree with a custom
// operator. The primitive is re-entered with opFn, so every call of one
// episode must pass the same function. Custom operators always run the
// binomial tree, bypassing the world's algorithm selection; prefer
// AllReduceOpT with a ReduceOp when a built-in operator fits.
func (t *TProc) AllReduceT(val uint64, opFn func(a, b uint64) uint64) (uint64, sim.PollableWait) {
	if t.P() == 1 {
		return val, nil
	}
	return t.allReduceTreeFnT(val, opFn)
}

// allReduceTreeFnT is the reduce-broadcast tree all-reduce: binomial-tree
// reduce to processor 0 (at round r, processors with bit r set send their
// partial to the neighbor below and drop out; the others absorb a partial
// from the neighbor above, when it exists) followed by a binomial
// broadcast, 2·⌈log2 P⌉ message rounds. op.pc: 0 enter, 1 round dispatch,
// 2 sending the partial, 3 receiving a partial, 4 broadcasting.
func (t *TProc) allReduceTreeFnT(val uint64, opFn func(a, b uint64) uint64) (uint64, sim.PollableWait) {
	w, me, P := t.w, t.ID(), t.P()
	for {
		switch t.op.pc {
		case 0:
			t.op.acc = val
			t.op.r = 0
			t.op.pc = 1
		case 1:
			mask := 1 << t.op.r
			if mask >= P {
				t.op.pc = 4
				continue
			}
			if me&mask != 0 {
				t.op.pc = 2
				continue
			}
			if me+mask < P {
				t.op.pc = 3
				continue
			}
			t.op.r++
		case 2:
			mask := 1 << t.op.r
			if wt := t.sendCollT(me&^mask, w.reduceTag(t.op.r), t.op.acc); wt != nil {
				return 0, wt
			}
			t.op.pc = 4
		case 3:
			v, wt := t.recvCollT(w.reduceTag(t.op.r))
			if wt != nil {
				return 0, wt
			}
			t.op.acc = opFn(t.op.acc, v)
			t.op.r++
			t.op.pc = 1
		case 4:
			v, wt := t.bcastTreeT(0, w.arBcastTag(0))
			if wt != nil {
				return 0, wt
			}
			t.op.pc = 0
			return v, nil
		}
	}
}

func addOp(a, b uint64) uint64 { return a + b }

func maxOp(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// AllReduceOpT is AllReduceOp: combine one word from every processor
// with a built-in operator via the world's selected all-reduce
// algorithm.
func (t *TProc) AllReduceOpT(val uint64, op ReduceOp) (uint64, sim.PollableWait) {
	if t.P() == 1 {
		return val, nil
	}
	return t.w.sel.ar.runT(t, val, op)
}

// AllReduceSumT sums one word across processors.
func (t *TProc) AllReduceSumT(v uint64) (uint64, sim.PollableWait) {
	return t.AllReduceOpT(v, OpSum)
}

// BroadcastT is Broadcast: distribute root's val to all processors with
// the world's selected broadcast algorithm.
func (t *TProc) BroadcastT(root int, val uint64) (uint64, sim.PollableWait) {
	P := t.P()
	if P == 1 {
		return val, nil
	}
	if root < 0 || root >= P {
		panic(fmt.Sprintf("splitc: Broadcast root %d out of range", root))
	}
	return t.w.sel.bcast.runT(t, root, val)
}

// ScanAddT is ScanAdd: the exclusive prefix sum, Hillis-Steele.
// op.pc: 0 enter, 1 send phase of round op.r, 2 recv phase.
func (t *TProc) ScanAddT(val uint64) (uint64, sim.PollableWait) {
	w, me, P := t.w, t.ID(), t.P()
	if P == 1 {
		return 0, nil
	}
	for {
		switch t.op.pc {
		case 0:
			t.op.acc = val // inclusive sum in progress
			t.op.r = 0
			t.op.pc = 1
		case 1:
			if 1<<t.op.r >= P {
				res := t.op.acc - val
				t.op.pc = 0
				return res, nil
			}
			dist := 1 << t.op.r
			if me+dist < P {
				if wt := t.sendCollT(me+dist, w.scanTag(t.op.r), t.op.acc); wt != nil {
					return 0, wt
				}
			}
			t.op.pc = 2
		case 2:
			dist := 1 << t.op.r
			if me-dist >= 0 {
				v, wt := t.recvCollT(w.scanTag(t.op.r))
				if wt != nil {
					return 0, wt
				}
				t.op.acc += v
			}
			t.op.r++
			t.op.pc = 1
		}
	}
}

// BulkPutT is BulkPut: pipelined bulk fragments under the window.
// op.pc: 0 fresh, 1 fragment loop (op.r is the word offset).
func (t *TProc) BulkPutT(g GPtr, vals []uint64) sim.PollableWait {
	if int(g.Proc) == t.ID() {
		copy(t.w.mem[g.Proc][g.Off:], vals)
		return nil
	}
	if t.op.pc == 0 {
		t.op.r = 0
		t.op.pc = 1
	}
	frag := t.fragWords()
	for t.op.r < len(vals) {
		off := t.op.r
		end := off + frag
		if end > len(vals) {
			end = len(vals)
		}
		chunk := vals[off:end]
		buf := make([]byte, 8*len(chunk))
		for i, v := range chunk {
			binary.LittleEndian.PutUint64(buf[8*i:], v)
		}
		target := g.Add(off)
		if wt := t.ep.StoreT(int(g.Proc), am.ClassWrite, t.w.hBulkPut, am.Args{target.Pack()}, buf); wt != nil {
			return wt
		}
		t.op.r = end
	}
	t.op.pc = 0
	return nil
}

// BulkGetT is BulkGet: a blocking bulk read of n words at g. op.pc: 0
// fresh, 1 fragment-request loop (op.r word offset), 2 all fragments
// arrived.
func (t *TProc) BulkGetT(g GPtr, n int) ([]uint64, sim.PollableWait) {
	if int(g.Proc) == t.ID() {
		out := make([]uint64, n)
		copy(out, t.w.mem[g.Proc][g.Off:int(g.Off)+n])
		return out, nil
	}
	for {
		switch t.op.pc {
		case 0:
			t.op.out = make([]uint64, n)
			t.op.recvd = 0
			t.op.r = 0
			t.op.pc = 1
		case 1:
			frag := t.fragWords()
			for t.op.r < n {
				off := t.op.r
				count := frag
				if off+count > n {
					count = n - off
				}
				src := g.Add(off)
				if wt := t.ep.RequestT(int(g.Proc), am.ClassRead, t.w.hBulkGetReq, am.Args{src.Pack(), uint64(count), uint64(off)}); wt != nil {
					return nil, wt
				}
				t.op.r = off + frag
			}
			t.op.pc = 2
			return nil, t.ep.CounterWait(am.WaitBulk, &t.op.recvd, int64(n), "splitc: bulk get")
		case 2:
			out := t.op.out
			t.op.out = nil
			t.op.pc = 0
			return out, nil
		}
	}
}
