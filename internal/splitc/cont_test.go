package splitc

import (
	"testing"

	"repro/internal/logp"
	"repro/internal/sim"
)

// The twin program exercises every primitive family — pipelined writes,
// blocking reads, store sync, barriers, collectives, bulk transfers,
// locks, and atomics — written once against the blocking API (Run, one
// coroutine per processor) and once as a Task (RunTasks, no stacks),
// statement for statement. The primitives underneath are the same code;
// what the test pins is that the two drivers schedule them identically:
// same virtual timelines, same communication footprints.

const twinWords = 600 // bulk payload exercises multi-fragment paths (> 512 words)

// twinBlocking is the coroutine version of the twin program.
func twinBlocking(p *Proc, results []uint64) {
	me := p.ID()
	P := p.P()
	base := p.Alloc(P + 2)     // [0,P) neighbor slots, P = lock word, P+1 = counter
	bulk := p.Alloc(twinWords) // bulk landing area
	_ = bulk
	p.Barrier()

	// Pipelined writes to the right neighbor, then a read back from the
	// left neighbor after the barrier has completed the stores.
	right := (me + 1) % P
	left := (me - 1 + P) % P
	p.WriteWord(GPtr{Proc: int32(right), Off: base.Off + int32(me)}, uint64(me+1))
	p.Barrier()
	got := p.ReadWord(GPtr{Proc: int32(left), Off: base.Off + int32(left)})
	_ = got

	// Collectives.
	sum := p.AllReduceSum(uint64(me))
	scan := p.ScanAdd(1)
	bc := p.Broadcast(0, sum+7)
	p.Barrier()

	// Bulk put to the right neighbor's landing area, then a bulk get of
	// the left neighbor's.
	vals := make([]uint64, twinWords)
	for i := range vals {
		vals[i] = uint64(me)<<32 | uint64(i)
	}
	p.BulkPut(GPtr{Proc: int32(right), Off: bulk.Off}, vals)
	p.Barrier()
	back := p.BulkGet(GPtr{Proc: int32(left), Off: bulk.Off}, twinWords)

	// Lock-protected read-modify-write on processor 0, plus a fetch-add.
	lock := GPtr{Proc: 0, Off: base.Off + int32(P)}
	ctr := GPtr{Proc: 0, Off: base.Off + int32(P) + 1}
	p.Lock(lock)
	v := p.ReadWord(ctr)
	p.WriteWordSync(ctr, v+1)
	p.Unlock(lock)
	fa := p.FetchAdd(ctr, 100)
	_ = fa

	results[me] = got + sum + scan + bc + back[twinWords-1]
}

// twinTask is the continuation version: the same statements, as a state
// machine.
type twinTask struct {
	pc      int
	results []uint64
	base    GPtr
	bulk    GPtr
	right   int
	left    int
	got     uint64
	sum     uint64
	scan    uint64
	bc      uint64
	vals    []uint64
	back    []uint64
	lock    GPtr
	ctr     GPtr
	v       uint64
}

func (k *twinTask) Step(t *TProc) (sim.PollableWait, bool) {
	me := t.ID()
	P := t.P()
	for {
		switch k.pc {
		case 0:
			k.base = t.Alloc(P + 2)
			k.bulk = t.Alloc(twinWords)
			k.right = (me + 1) % P
			k.left = (me - 1 + P) % P
			k.lock = GPtr{Proc: 0, Off: k.base.Off + int32(P)}
			k.ctr = GPtr{Proc: 0, Off: k.base.Off + int32(P) + 1}
			k.pc = 1
		case 1:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.pc = 2
		case 2:
			if wt := t.WriteWordT(GPtr{Proc: int32(k.right), Off: k.base.Off + int32(me)}, uint64(me+1)); wt != nil {
				return wt, false
			}
			k.pc = 3
		case 3:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.pc = 4
		case 4:
			v, wt := t.ReadWordT(GPtr{Proc: int32(k.left), Off: k.base.Off + int32(k.left)})
			if wt != nil {
				return wt, false
			}
			k.got = v
			k.pc = 5
		case 5:
			v, wt := t.AllReduceSumT(uint64(me))
			if wt != nil {
				return wt, false
			}
			k.sum = v
			k.pc = 6
		case 6:
			v, wt := t.ScanAddT(1)
			if wt != nil {
				return wt, false
			}
			k.scan = v
			k.pc = 7
		case 7:
			v, wt := t.BroadcastT(0, k.sum+7)
			if wt != nil {
				return wt, false
			}
			k.bc = v
			k.pc = 8
		case 8:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.vals = make([]uint64, twinWords)
			for i := range k.vals {
				k.vals[i] = uint64(me)<<32 | uint64(i)
			}
			k.pc = 9
		case 9:
			if wt := t.BulkPutT(GPtr{Proc: int32(k.right), Off: k.bulk.Off}, k.vals); wt != nil {
				return wt, false
			}
			k.pc = 10
		case 10:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.pc = 11
		case 11:
			out, wt := t.BulkGetT(GPtr{Proc: int32(k.left), Off: k.bulk.Off}, twinWords)
			if wt != nil {
				return wt, false
			}
			k.back = out
			k.pc = 12
		case 12:
			if wt := t.LockT(k.lock); wt != nil {
				return wt, false
			}
			k.pc = 13
		case 13:
			v, wt := t.ReadWordT(k.ctr)
			if wt != nil {
				return wt, false
			}
			k.v = v
			k.pc = 14
		case 14:
			if wt := t.WriteWordT(k.ctr, k.v+1); wt != nil {
				return wt, false
			}
			k.pc = 15
		case 15:
			if wt := t.StoreSyncT(); wt != nil {
				return wt, false
			}
			k.pc = 16
		case 16:
			if wt := t.UnlockT(k.lock); wt != nil {
				return wt, false
			}
			k.pc = 17
		case 17:
			_, wt := t.FetchAddT(k.ctr, 100)
			if wt != nil {
				return wt, false
			}
			k.pc = 18
		case 18:
			k.results[me] = k.got + k.sum + k.scan + k.bc + k.back[twinWords-1]
			return nil, true
		}
	}
}

// NewTwinTask exports the twin task to the package's external tests
// (observe_test.go imports packages that import splitc).
func NewTwinTask(results []uint64) Task { return &twinTask{results: results} }

func twinWorld(t *testing.T, p int) *World {
	t.Helper()
	w, err := NewWorld(p, logp.NOW(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestContMatchesBlocking pins the resumable driver against the
// coroutine driver: identical program, identical machine → identical
// results, identical message counts, and identical virtual makespans.
func TestContMatchesBlocking(t *testing.T) {
	for _, P := range []int{1, 2, 16, 32} {
		wb := twinWorld(t, P)
		resB := make([]uint64, P)
		if err := wb.Run(func(p *Proc) { twinBlocking(p, resB) }); err != nil {
			t.Fatalf("P=%d blocking: %v", P, err)
		}

		wc := twinWorld(t, P)
		resC := make([]uint64, P)
		if err := wc.RunTasks(func(id int) Task { return &twinTask{results: resC} }); err != nil {
			t.Fatalf("P=%d continuation: %v", P, err)
		}

		for i := range resB {
			if resB[i] != resC[i] {
				t.Errorf("P=%d proc %d: blocking result %d, continuation %d", P, i, resB[i], resC[i])
			}
		}
		if sb, sc := wb.Stats().TotalSent(), wc.Stats().TotalSent(); sb != sc {
			t.Errorf("P=%d: blocking sent %d messages, continuation %d", P, sb, sc)
		}
		if bb, bc := wb.Stats().Barriers, wc.Stats().Barriers; bb != bc {
			t.Errorf("P=%d: blocking %d barriers, continuation %d", P, bb, bc)
		}
		if eb, ec := wb.Elapsed(), wc.Elapsed(); eb != ec {
			t.Errorf("P=%d: blocking elapsed %v, continuation elapsed %v", P, eb, ec)
		}
	}
}

// TestContDeterminism pins that two continuation runs of the same program
// produce the same virtual timeline.
func TestContDeterminism(t *testing.T) {
	var elapsed [2]sim.Time
	var sent [2]int64
	for i := range elapsed {
		w := twinWorld(t, 16)
		res := make([]uint64, 16)
		if err := w.RunTasks(func(id int) Task { return &twinTask{results: res} }); err != nil {
			t.Fatal(err)
		}
		elapsed[i] = w.Elapsed()
		sent[i] = w.Stats().TotalSent()
	}
	if elapsed[0] != elapsed[1] || sent[0] != sent[1] {
		t.Fatalf("nondeterministic continuation run: %v/%d vs %v/%d",
			elapsed[0], sent[0], elapsed[1], sent[1])
	}
}
