package sim

// The scheduler's two priority queues are 4-ary min-heaps of records held
// by value. Both orders are strict total orders — (at, seq) for events,
// (clock, id) for processors — so the pop sequence is independent of heap
// shape and everything below is a constant-factor choice that cannot
// reach a timeline: four children to a node halve the sift depth of a
// binary heap, a comparison reads only the heap's own array, and a sift
// moves a hole — the record being placed stays in hand while the records
// in its way shift one level, one store per level where a swap makes two.

// event is one pending scheduler event. Events are stored by value in
// the heap's slice, so scheduling allocates nothing once the slice has
// grown to the workload's high-water mark; the closure-free EventFn+arg
// representation (see Engine.ScheduleCall) keeps the caller side
// allocation-free too.
type event struct {
	at  Time
	seq int64
	fn  EventFn
	arg any
}

// before is the event queue's order: time, then FIFO.
//
//repro:hotpath
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

type eventHeap struct {
	ev []event
}

func (h *eventHeap) len() int { return len(h.ev) }

//repro:hotpath
func (h *eventHeap) push(x event) {
	//lint:allow hotpathalloc amortized heap growth; the slice reaches its high-water mark during warmup
	h.ev = append(h.ev, x)
	ev := h.ev
	i := len(ev) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !x.before(&ev[parent]) {
			break
		}
		ev[i] = ev[parent]
		i = parent
	}
	ev[i] = x
}

func (h *eventHeap) peek() *event {
	if len(h.ev) == 0 {
		return nil
	}
	return &h.ev[0]
}

//repro:hotpath
func (h *eventHeap) pop() event {
	top := h.ev[0]
	last := len(h.ev) - 1
	x := h.ev[last]
	h.ev[last] = event{} // release the fn/arg references
	h.ev = h.ev[:last]
	if last > 0 {
		h.siftDown(x)
	}
	return top
}

// siftDown places x, starting from a hole at the root.
//
//repro:hotpath
func (h *eventHeap) siftDown(x event) {
	ev := h.ev
	n := len(ev)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		small := first
		for c, end := first+1, min(first+4, n); c < end; c++ {
			if ev[c].before(&ev[small]) {
				small = c
			}
		}
		if !ev[small].before(&x) {
			break
		}
		ev[i] = ev[small]
		i = small
	}
	ev[i] = x
}

// readyEntry is one runnable processor in the ready queue, with its
// (clock, id) key copied in so that ordering the queue never touches a
// Proc. The copy cannot go stale: only a processor's own turn moves its
// clock, and a processor in the queue is not having one (Proc.WakeAt on a
// processor that is not blocked only records the wake).
type readyEntry struct {
	clock Time
	id    int
	p     *Proc
}

// entry is p as the ready queue holds it, keyed at its current clock.
//
//repro:hotpath
func (p *Proc) entry() readyEntry { return readyEntry{clock: p.clock, id: p.id, p: p} }

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

// procHeap is the ready queue: a 4-ary min-heap of readyEntry. Entries
// leave only from the root, so nothing records where in the heap a
// processor sits.
type procHeap struct {
	ps []readyEntry
}

func (h *procHeap) len() int { return len(h.ps) }

//repro:hotpath
func (h *procHeap) push(p *Proc) {
	x := p.entry()
	//lint:allow hotpathalloc amortized heap growth; bounded by the processor count
	h.ps = append(h.ps, x)
	ps := h.ps
	i := len(ps) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !x.before(&ps[parent]) {
			break
		}
		ps[i] = ps[parent]
		i = parent
	}
	ps[i] = x
}

func (h *procHeap) peek() *readyEntry {
	if len(h.ps) == 0 {
		return nil
	}
	return &h.ps[0]
}

//repro:hotpath
func (h *procHeap) pop() *Proc {
	top := h.ps[0].p
	last := len(h.ps) - 1
	x := h.ps[last]
	h.ps = h.ps[:last]
	if last > 0 {
		h.siftDown(x)
	}
	return top
}

// handOff is push(p) followed by pop() in one sift, for a p that does not
// sort before the root (the queue is therefore not empty): the root
// leaves, and p is placed from the hole it left. The two-step spelling
// returns the same processor — the root stays the minimum after p joins —
// and leaves the same set behind, which is all that pop order depends on.
//
//repro:hotpath
func (h *procHeap) handOff(p *Proc) *Proc {
	top := h.ps[0].p
	h.siftDown(p.entry())
	return top
}

// siftDown places x, starting from a hole at the root.
//
//repro:hotpath
func (h *procHeap) siftDown(x readyEntry) {
	ps := h.ps
	n := len(ps)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		small := first
		for c, end := first+1, min(first+4, n); c < end; c++ {
			if ps[c].before(&ps[small]) {
				small = c
			}
		}
		if !ps[small].before(&x) {
			break
		}
		ps[i] = ps[small]
		i = small
	}
	ps[i] = x
}
