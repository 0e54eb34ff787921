package sim

// The scheduler's two priority queues merge ascending runs. A record that
// does not sort before the most recently pushed record still queued (the
// tail, whose key each queue keeps) is linked after it in O(1); any other
// push starts a new run. A
// 4-ary min-heap orders the runs by their heads, each slot holding its
// head's key by value so that peek is one load. Taking the root either
// re-sifts that slot with its run's next record or, when the run has
// ended, is an ordinary heap pop.
//
// This pays because bulk-synchronous processors run in lockstep: at
// P = 10k the ~12k pending events fall on ~80 distinct instants and the
// ~7.7k ready processors on ~16 clocks, so 94 % of pushes extend a run,
// and a re-sifted head, which sorts right after the one it replaces,
// usually stops within a level where a heap of records would sift to the
// bottom. Both orders are strict total orders — (at, seq) for events,
// (clock, id) for processors — so the pop sequence is independent of how
// records are grouped into runs and how the heap is shaped: none of it
// can reach a timeline. Sifts move a hole — the slot being placed stays
// in hand while the slots in its way shift one level.
//
// Memory follows the pending high-water mark, and the steady state
// allocates nothing: event records live in a pool whose free list reuses
// popped nodes, and the ready queue links processors by id through one
// array of length P (a processor is queued at most once).

// none marks the end of a run, an empty free list and an absent tail.
const none = -1

// event is one pending scheduler event. Its closure-free EventFn+arg
// representation (see Engine.ScheduleCall) keeps the caller side
// allocation-free.
type event struct {
	at  Time
	seq int64
	fn  EventFn
	arg any
}

// eventNode is an event in the pool: linked to the next record of its
// run while queued, to the next free node once popped.
type eventNode struct {
	event
	next int32
}

// eventRun is an event's key and node: a heap slot holds its run head's,
// and the queue keeps the tail's.
type eventRun struct {
	at   Time
	seq  int64
	node int32
}

// before is the event queue's order: time, then FIFO.
//
//repro:hotpath
func (a *eventRun) before(b *eventRun) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

type eventHeap struct {
	runs []eventRun
	pool []eventNode
	free int32    // first free node, or none
	last eventRun // the tail; last.node is none when there is no tail
	n    int      // queued events
}

func (h *eventHeap) init() { h.free, h.last.node = none, none }

func (h *eventHeap) len() int { return h.n }

//repro:hotpath
func (h *eventHeap) push(x event) {
	n := h.free
	if n != none {
		h.free = h.pool[n].next
	} else {
		//lint:allow hotpathalloc amortized pool growth; the pool reaches its high-water mark during warmup
		h.pool = append(h.pool, eventNode{})
		n = int32(len(h.pool) - 1)
	}
	h.pool[n] = eventNode{event: x, next: none}
	h.n++
	s := eventRun{at: x.at, seq: x.seq, node: n}
	if t := h.last; t.node != none && !s.before(&t) {
		h.pool[t.node].next = n
		h.last = s
		return
	}
	h.last = s
	//lint:allow hotpathalloc amortized heap growth; bounded by the pool
	h.runs = append(h.runs, eventRun{})
	runs := h.runs
	i := len(runs) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s.before(&runs[parent]) {
			break
		}
		runs[i] = runs[parent]
		i = parent
	}
	runs[i] = s
}

// peek returns the next event's key; its at is the event's time.
func (h *eventHeap) peek() *eventRun {
	if len(h.runs) == 0 {
		return nil
	}
	return &h.runs[0]
}

//repro:hotpath
func (h *eventHeap) pop() event {
	n := h.runs[0].node
	node := &h.pool[n]
	x, next := node.event, node.next
	*node = eventNode{next: h.free} // release the fn/arg references
	h.free = n
	h.n--
	if n == h.last.node {
		h.last.node = none
	}
	if next != none {
		h.siftDown(eventRun{at: h.pool[next].at, seq: h.pool[next].seq, node: next})
		return x
	}
	end := len(h.runs) - 1
	s := h.runs[end]
	h.runs = h.runs[:end]
	if end > 0 {
		h.siftDown(s)
	}
	return x
}

// siftDown places s, starting from a hole at the root.
//
//repro:hotpath
func (h *eventHeap) siftDown(s eventRun) {
	runs := h.runs
	n := len(runs)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		small := first
		for c, end := first+1, min(first+4, n); c < end; c++ {
			if runs[c].before(&runs[small]) {
				small = c
			}
		}
		if !runs[small].before(&s) {
			break
		}
		runs[i] = runs[small]
		i = small
	}
	runs[i] = s
}

// readyEntry is a runnable processor's (clock, id) key: a ready-heap slot
// holds its run head's, and the queue keeps the tail's. It is read from
// the Proc when the processor is pushed or becomes its run's head, and
// cannot have gone stale by then: only a processor's own turn moves its
// clock, and a processor in the queue is not having one (Proc.WakeAt on a
// processor that is not blocked only records the wake).
type readyEntry struct {
	clock Time
	id    int
}

// entry is p's key at its current clock.
//
//repro:hotpath
func (p *Proc) entry() readyEntry { return readyEntry{clock: p.clock, id: p.id} }

// before is the ready queue's order: clock, then processor identity, so
// the schedule is stable.
//
//repro:hotpath
func (a *readyEntry) before(b *readyEntry) bool {
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	return a.id < b.id
}

// procHeap is the ready queue. Processors leave only from the root, so
// nothing records where in the heap a run sits.
type procHeap struct {
	runs  []readyEntry
	next  []int32 // next[id]: the processor after id in its run, or none
	procs []*Proc
	last  readyEntry // the tail's key; last.id is none when there is no tail
	n     int        // queued processors
}

// init sizes the queue for procs, at its high-water mark.
func (h *procHeap) init(procs []*Proc) {
	h.runs = make([]readyEntry, 0, len(procs))
	h.next = make([]int32, len(procs))
	h.procs = procs
	h.last.id = none
}

func (h *procHeap) len() int { return h.n }

//repro:hotpath
func (h *procHeap) push(p *Proc) {
	x := p.entry()
	h.n++
	h.next[x.id] = none
	if t := h.last; t.id != none && !x.before(&t) {
		h.next[t.id] = int32(x.id)
		h.last = x
		return
	}
	h.last = x
	//lint:allow hotpathalloc preallocated at the processor count, which bounds the runs
	h.runs = append(h.runs, x)
	runs := h.runs
	i := len(runs) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !x.before(&runs[parent]) {
			break
		}
		runs[i] = runs[parent]
		i = parent
	}
	runs[i] = x
}

func (h *procHeap) peek() *readyEntry {
	if len(h.runs) == 0 {
		return nil
	}
	return &h.runs[0]
}

//repro:hotpath
func (h *procHeap) pop() *Proc {
	id := h.runs[0].id
	h.n--
	if id == h.last.id {
		h.last.id = none
	}
	if next := h.next[id]; next != none {
		h.siftDown(h.procs[next].entry())
		return h.procs[id]
	}
	end := len(h.runs) - 1
	x := h.runs[end]
	h.runs = h.runs[:end]
	if end > 0 {
		h.siftDown(x)
	}
	return h.procs[id]
}

// handOff is the scheduler's exchange: p, which lost the CPU and does not
// sort before the root (the queue is therefore not empty), joins the
// queue and the root leaves. A p that starts a run sifts up at most to
// just below the root, and one that extends a run costs no sift at all.
//
//repro:hotpath
func (h *procHeap) handOff(p *Proc) *Proc {
	h.push(p)
	return h.pop()
}

// siftDown places x, starting from a hole at the root.
//
//repro:hotpath
func (h *procHeap) siftDown(x readyEntry) {
	runs := h.runs
	n := len(runs)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		small := first
		for c, end := first+1, min(first+4, n); c < end; c++ {
			if runs[c].before(&runs[small]) {
				small = c
			}
		}
		if !runs[small].before(&x) {
			break
		}
		runs[i] = runs[small]
		i = small
	}
	runs[i] = x
}
