package prof

import (
	"testing"

	"repro/internal/am"
	"repro/internal/sim"
)

// checkExact verifies the unit-level conservation property: the
// categories sum exactly to the span of timeline fed in, so every
// nanosecond landed in one account.
func checkExact(t *testing.T, ps *procState, fed sim.Time) {
	t.Helper()
	var sum sim.Time
	for _, d := range ps.cat {
		sum += d
	}
	if sum != fed {
		t.Fatalf("categories sum to %v, fed %v", sum, fed)
	}
}

func TestIdleSleep(t *testing.T) {
	ps := &procState{}
	ps.idle(0, 40)
	if ps.cat[CatSleep] != 40 {
		t.Fatalf("non-waiting idle charged %v to sleep, want 40", ps.cat[CatSleep])
	}
	checkExact(t, ps, 40)
}

func TestIdleNoBacklog(t *testing.T) {
	ps := &procState{waiting: true, kind: am.WaitRead}
	ps.idle(100, 150)
	if ps.cat[CatLatency] != 50 {
		t.Fatalf("latency %v, want 50", ps.cat[CatLatency])
	}
	checkExact(t, ps, 50)
}

// TestIdleSegmentSplit walks a wait across a hole, a gap interval split
// by the injection cut, a DMA interval, and a tail.
func TestIdleSegmentSplit(t *testing.T) {
	ps := &procState{waiting: true, kind: am.WaitData}
	ps.segs = []txSeg{{inject: 10, gapEnd: 20, busyEnd: 30}}
	ps.lastInject = 15 // a later injection happened at t=15
	ps.idle(0, 40)
	// [0,10) hole → latency; [10,15) gap before the cut → gap;
	// [15,20) gap after the cut → latency; [20,30) DMA → bulk;
	// [30,40) tail → latency.
	if got := ps.cat[CatGap]; got != 5 {
		t.Errorf("gap %v, want 5", got)
	}
	if got := ps.cat[CatBulk]; got != 10 {
		t.Errorf("bulk %v, want 10", got)
	}
	if got := ps.cat[CatLatency]; got != 25 {
		t.Errorf("latency %v, want 25", got)
	}
	checkExact(t, ps, 40)
	if len(ps.segs) != 0 {
		t.Errorf("consumed segment not pruned: %v", ps.segs)
	}
}

// TestIdleBacklogQueue models a window stall against a queued transmit
// backlog: injections stretch into the future, so the whole overlap up
// to the last injection is a gap stall.
func TestIdleBacklogQueue(t *testing.T) {
	ps := &procState{waiting: true, kind: am.WaitWindow}
	ps.segs = []txSeg{
		{inject: 0, gapEnd: 6, busyEnd: 6},
		{inject: 6, gapEnd: 12, busyEnd: 12},
		{inject: 12, gapEnd: 18, busyEnd: 18},
	}
	ps.lastInject = 12
	ps.idle(2, 30)
	// [2,12) is gap backlog before the last injection; [12,18) is the
	// final message's own gap (paces nothing) plus [18,30) round-trip
	// wait → window.
	if got := ps.cat[CatGap]; got != 10 {
		t.Errorf("gap %v, want 10", got)
	}
	if got := ps.cat[CatWindow]; got != 18 {
		t.Errorf("window %v, want 18", got)
	}
	checkExact(t, ps, 28)
}

// TestIdleSpansSplitAcrossWaits drives two separate waits over one
// reservation and checks the pieces still partition it.
func TestIdleSpansSplitAcrossWaits(t *testing.T) {
	ps := &procState{waiting: true, kind: am.WaitData}
	ps.segs = []txSeg{{inject: 0, gapEnd: 20, busyEnd: 28}}
	ps.lastInject = 16
	ps.idle(0, 10)
	if got := ps.cat[CatGap]; got != 10 {
		t.Fatalf("first span gap %v, want 10", got)
	}
	if len(ps.segs) != 1 {
		t.Fatalf("live segment pruned early")
	}
	ps.idle(10, 30)
	// [10,16) gap; [16,20) post-cut gap → latency; [20,28) bulk;
	// [28,30) tail → latency.
	if got := ps.cat[CatGap]; got != 16 {
		t.Errorf("gap %v, want 16", got)
	}
	if got := ps.cat[CatBulk]; got != 8 {
		t.Errorf("bulk %v, want 8", got)
	}
	if got := ps.cat[CatLatency]; got != 6 {
		t.Errorf("latency %v, want 6", got)
	}
	checkExact(t, ps, 30)
}

// TestRegionOverride checks lock/barrier regions reclassify both waits
// and lock-spin compute, while a send's o_send span stays o-send. The
// events tile [0, 19) once: a spin, two compute charges and one send.
func TestRegionOverride(t *testing.T) {
	pf := New(1)
	pf.SyncEnter(0, am.RegionLock, 0)
	pf.WaitBegin(0, am.WaitLock, 0)
	pf.ClockAdvanced(0, sim.ClockSpin, 0, 10)
	pf.WaitEnd(0, am.WaitLock, 10)
	pf.ComputeCharged(0, 10, 12)
	pf.SyncExit(0, am.RegionLock, 12)
	pf.ComputeCharged(0, 12, 15)
	pf.MessageSent(am.SendEvent{OFrom: 15, OTo: 19, At: 19, Inject: 19, GapFree: 25, BusyFree: 25, Arrival: 30})
	ps := &pf.procs[0]
	if got := ps.cat[CatLock]; got != 12 {
		t.Errorf("lock %v, want 12 (10 wait + 2 spin compute)", got)
	}
	if got := ps.cat[CatCompute]; got != 3 {
		t.Errorf("compute %v, want 3", got)
	}
	if got := ps.cat[CatOSend]; got != 4 {
		t.Errorf("o-send %v, want 4", got)
	}
	if want := (txSeg{inject: 19, gapEnd: 25, busyEnd: 25}); len(ps.segs) != 1 || ps.segs[0] != want || ps.lastInject != 19 {
		t.Errorf("send recorded segments %v, last injection %v; want [%v], 19", ps.segs, ps.lastInject, want)
	}
	checkExact(t, ps, 19)
}

func TestCheckConservationCatchesGaps(t *testing.T) {
	p := &Profile{Elapsed: 100, Procs: []ProcBreakdown{{Proc: 0}}}
	if err := p.CheckConservation(); err == nil {
		t.Fatal("empty breakdown under a 100ns makespan passed conservation")
	}
	p.Procs[0].Time[CatCompute] = 60
	p.Procs[0].Time[CatBarrier] = 40
	if err := p.CheckConservation(); err != nil {
		t.Fatalf("exact breakdown failed conservation: %v", err)
	}
}
