package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// queuesMatchSort runs prog, one operation a byte, against both scheduler
// queues and against two slices kept sorted by the orders written out
// here, (clock, id) and (at, seq). Whatever leaves a queue — by pop, by
// the fused hand-off, in the final drain — must be what heads the
// slice, which is all the scheduler asks of a queue: its shape is free.
//
// The top two bits of a byte choose the operation, the low six its
// argument. Keys are drawn from eight instants so that id and seq ties
// are the common case, and 64 processors fill the 4-ary heap four levels
// deep. A push may also trail the newest push by 0–2 instants, which
// is how a queue's ascending runs grow longer than one record — and how
// a push lands just behind a run's tail, or after a tail already popped.
func queuesMatchSort(t testing.TB, prog []byte) {
	const procs = 64
	e := New(Config{Procs: procs})
	var (
		ready     procHeap
		events    eventHeap
		refReady  []*Proc // in the ready queue, sorted by (clock, id)
		refEvents []event // in the event queue, sorted by (at, seq)
		seq       int64
		// the instants of the newest push to each queue, popped or not
		newestReady, newestEvent Time
	)
	ready.init(e.procs)
	events.init()
	out := append([]*Proc(nil), e.procs...) // not in the ready queue

	enter := func(p *Proc) {
		newestReady = p.clock
		i := sort.Search(len(refReady), func(i int) bool {
			q := refReady[i]
			return q.clock > p.clock || q.clock == p.clock && q.id > p.id
		})
		refReady = append(refReady, nil)
		copy(refReady[i+1:], refReady[i:])
		refReady[i] = p
	}
	leave := func(got *Proc) {
		t.Helper()
		if want := refReady[0]; got != want {
			t.Fatalf("ready queue gave proc %d@%d, sorted order says %d@%d", got.id, got.clock, want.id, want.clock)
		}
		refReady = refReady[1:]
		out = append(out, got)
	}
	// take removes one processor from out, chosen by arg.
	take := func(arg int) *Proc {
		i := arg % len(out)
		p := out[i]
		out[i] = out[len(out)-1]
		out = out[:len(out)-1]
		return p
	}
	schedule := func(at Time) {
		newestEvent = at
		seq++
		ev := event{at: at, seq: seq}
		events.push(ev)
		i := sort.Search(len(refEvents), func(i int) bool { return refEvents[i].at > at })
		refEvents = append(refEvents, event{})
		copy(refEvents[i+1:], refEvents[i:])
		refEvents[i] = ev // after every earlier seq at the same instant
	}
	fire := func() {
		t.Helper()
		got, want := events.pop(), refEvents[0]
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("event queue gave (at %d, seq %d), sorted order says (at %d, seq %d)", got.at, got.seq, want.at, want.seq)
		}
		refEvents = refEvents[1:]
	}
	check := func() {
		t.Helper()
		if ready.len() != len(refReady) || events.len() != len(refEvents) {
			t.Fatalf("lengths: ready %d, events %d; want %d, %d", ready.len(), events.len(), len(refReady), len(refEvents))
		}
		if q := ready.peek(); q != nil && (q.id != refReady[0].id || q.clock != refReady[0].clock) {
			t.Fatalf("ready root is %d@%d, sorted order says %d@%d", q.id, q.clock, refReady[0].id, refReady[0].clock)
		}
		if ev := events.peek(); ev != nil && (ev.at != refEvents[0].at || ev.seq != refEvents[0].seq) {
			t.Fatalf("event root is (at %d, seq %d), sorted order says (at %d, seq %d)", ev.at, ev.seq, refEvents[0].at, refEvents[0].seq)
		}
	}

	for _, b := range prog {
		op, arg := b>>6, int(b&63)
		at := Time(arg / 8)
		switch op {
		case 0, 1: // push; 1 ties with the current root's instant (arg < 32) or trails the newest push
			trail := op == 1 && arg >= 32
			if trail {
				at = newestReady + Time(arg%3)
			} else if op == 1 && ready.len() > 0 {
				at = ready.peek().clock
			}
			if len(out) > 0 {
				p := take(arg)
				p.clock = at
				ready.push(p)
				enter(p)
			}
			if trail {
				at = newestEvent + Time(arg%3)
			} else if op == 1 && events.len() > 0 {
				at = events.peek().at
			}
			schedule(at)
		case 2: // pop
			if ready.len() > 0 {
				leave(ready.pop())
			}
			if events.len() > 0 {
				fire()
			}
		case 3: // hand-off: p lost the CPU to the root, so it sorts after it
			if ready.len() > 0 && len(out) > 0 {
				root := *ready.peek()
				p := take(arg)
				p.clock = root.clock + at%3
				if self := p.entry(); self.before(&root) {
					p.clock++
				}
				enter(p)
				leave(ready.handOff(p))
			}
			// Events have no fused form; the pair it fuses, then.
			schedule(at)
			fire()
		}
		check()
	}
	for ready.len() > 0 {
		leave(ready.pop())
	}
	for events.len() > 0 {
		fire()
	}
	check()
}

// TestQueuesMatchSort is random interleavings from a fixed seed: pushHeavy
// of every 8 operations grow the queues, so they run both nearly empty —
// one entry to pop, one entry to hand off to — and four levels deep.
func TestQueuesMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, pushHeavy := range []int{2, 4, 6} {
		for n := 0; n < 100; n++ {
			prog := make([]byte, rng.Intn(600))
			for i := range prog {
				op := byte(rng.Intn(2)) // push, tie-push
				if rng.Intn(8) >= pushHeavy {
					op = 2 + byte(rng.Intn(2)) // pop, hand-off
				}
				prog[i] = op<<6 | byte(rng.Intn(64))
			}
			queuesMatchSort(t, prog)
		}
	}
}

// FuzzQueuesMatchSort is TestQueuesMatchSort with the fuzzer writing the
// programs. The seed corpus under testdata/fuzz is the shapes a random
// program reaches rarely: the empty program, a queue of one entry popped
// and popped again, hand-offs to a queue of one (a later instant, the
// same instant on either side of the id tie), every entry at one instant,
// a fill to the last processor, and the shapes of runs: a run's tail
// popped before a later key is pushed (a new run, never a link to the
// freed node), two runs interleaved at one instant (ids 1, 5, 9 and 3,
// 7), an event run across several instants, and strictly descending
// pushes, every one a run of its own.
func FuzzQueuesMatchSort(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) { queuesMatchSort(t, prog) })
}

// TestEventPoolBoundedByPending is a million push/pop pairs with at most
// 64 events pending: the pool of event nodes must stay at the pending
// high-water mark — a freed node is reused, never left behind — and a
// popped node must drop its fn and arg, or the queue would keep what they
// reference alive.
func TestEventPoolBoundedByPending(t *testing.T) {
	const maxPending = 64
	var h eventHeap
	h.init()
	rng := rand.New(rand.NewSource(1))
	fn := func(any, Time) {}
	var seq int64
	for seq < 1_000_000 || h.len() > 0 {
		if seq == 1_000_000 || h.len() == maxPending || h.len() > 0 && rng.Intn(2) == 0 {
			h.pop()
			if n := &h.pool[h.free]; n.fn != nil || n.arg != nil {
				t.Fatalf("a pop after push %d left fn/arg in its freed node", seq)
			}
			continue
		}
		seq++
		h.push(event{at: Time(rng.Intn(16)), seq: seq, fn: fn, arg: &seq})
	}
	if len(h.pool) > maxPending {
		t.Fatalf("event pool grew to %d nodes with at most %d events pending", len(h.pool), maxPending)
	}
}
