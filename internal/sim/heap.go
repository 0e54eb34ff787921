package sim

// The scheduler's two priority queues are 4-ary min-heaps. Both orders
// are strict total orders — (at, seq) for events, (clock, id) for
// processors — so the pop sequence is independent of heap shape and a
// wider fan-out is purely a constant-factor optimization: half the sift
// depth of a binary heap, and the four children of a node share a cache
// line. Determinism is unaffected by construction.

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

type eventHeap struct {
	ev []event
}

func (h *eventHeap) len() int { return len(h.ev) }

func (h *eventHeap) less(i, j int) bool {
	if h.ev[i].at != h.ev[j].at {
		return h.ev[i].at < h.ev[j].at
	}
	return h.ev[i].seq < h.ev[j].seq
}

//repro:hotpath
func (h *eventHeap) push(e event) {
	//lint:allow hotpathalloc amortized heap growth; the slice reaches its high-water mark during warmup
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
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
	h.ev[0] = h.ev[last]
	h.ev[last] = event{} // release the fn/arg references
	h.ev = h.ev[:last]
	h.siftDown(0)
	return top
}

//repro:hotpath
func (h *eventHeap) siftDown(i int) {
	n := len(h.ev)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		small := i
		end := first + 4
		if end > n {
			end = n
		}
		for c := first; c < end; c++ {
			if h.less(c, small) {
				small = c
			}
		}
		if small == i {
			return
		}
		h.ev[i], h.ev[small] = h.ev[small], h.ev[i]
		i = small
	}
}

// procHeap is a 4-ary min-heap of ready processors ordered by
// (clock, id). Processor identity breaks ties so the schedule is stable.
// Each Proc caches its heap index for O(log n) removal and re-keying.
type procHeap struct {
	ps []*Proc
}

func (h *procHeap) len() int { return len(h.ps) }

func (h *procHeap) less(i, j int) bool { return h.ps[i].before(h.ps[j]) }

func (h *procHeap) swap(i, j int) {
	h.ps[i], h.ps[j] = h.ps[j], h.ps[i]
	h.ps[i].heapIndex = i
	h.ps[j].heapIndex = j
}

//repro:hotpath
func (h *procHeap) push(p *Proc) {
	p.heapIndex = len(h.ps)
	//lint:allow hotpathalloc amortized heap growth; bounded by the processor count
	h.ps = append(h.ps, p)
	h.siftUp(p.heapIndex)
}

func (h *procHeap) peek() *Proc {
	if len(h.ps) == 0 {
		return nil
	}
	return h.ps[0]
}

//repro:hotpath
func (h *procHeap) pop() *Proc {
	top := h.ps[0]
	h.remove(0)
	return top
}

// remove deletes the element at index i.
//
//repro:hotpath
func (h *procHeap) remove(i int) {
	last := len(h.ps) - 1
	if i != last {
		h.swap(i, last)
	}
	h.ps[last].heapIndex = -1
	h.ps = h.ps[:last]
	if i < last {
		h.siftDown(i)
		h.siftUp(i)
	}
}

//repro:hotpath
func (h *procHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

//repro:hotpath
func (h *procHeap) siftDown(i int) {
	n := len(h.ps)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		small := i
		end := first + 4
		if end > n {
			end = n
		}
		for c := first; c < end; c++ {
			if h.less(c, small) {
				small = c
			}
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}
