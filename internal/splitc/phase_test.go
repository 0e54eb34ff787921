package splitc

import (
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
)

func TestPhaseAccounting(t *testing.T) {
	w := newTestWorld(t, 4)
	err := w.Run(func(p *Proc) {
		p.EnterPhase("setup")
		p.ComputeUs(100)
		p.EnterPhase("work")
		p.ComputeUs(300)
		p.EnterPhase("teardown")
		p.ComputeUs(100)
	})
	if err != nil {
		t.Fatal(err)
	}
	names := w.PhaseNames()
	if len(names) != 3 || names[0] != "setup" || names[1] != "work" || names[2] != "teardown" {
		t.Fatalf("phase names = %v", names)
	}
	if got := w.PhaseTime("work"); got < 4*300*sim.Microsecond {
		t.Errorf("work time = %v, want >= 1200µs across 4 procs", got)
	}
	frac := w.PhaseFraction("work")
	// Work is 300 of 500µs of compute plus some barrier time in teardown.
	if frac < 0.4 || frac > 0.7 {
		t.Errorf("work fraction = %v, want ≈0.6", frac)
	}
	total := 0.0
	for _, n := range names {
		total += w.PhaseFraction(n)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("phase fractions sum to %v", total)
	}
}

func TestPhaseUnlabeledIsFree(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(p *Proc) {
		p.ComputeUs(500) // before any label: unaccounted
		p.EnterPhase("only")
		p.ComputeUs(100)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.PhaseFraction("only"); got != 1.0 {
		t.Errorf("only-phase fraction = %v, want 1", got)
	}
	if w.PhaseTime("missing") != 0 {
		t.Error("unknown phase has time")
	}
}

func TestPhaseFractionEmptyWorld(t *testing.T) {
	w := newTestWorld(t, 2)
	if err := w.Run(func(p *Proc) {}); err != nil {
		t.Fatal(err)
	}
	if w.PhaseFraction("x") != 0 || len(w.PhaseNames()) != 0 {
		t.Error("expected no phase data")
	}
}

// TestPhaseAccountingTaskMatchesBlocking runs one phased program twice —
// as a blocking body under Run and as a Task under RunTasks — and
// requires the same labels in the same order with the same per-label
// time. Each phase waits (a barrier, a remote write under the window),
// and the open phase at the end is closed after the terminal barrier by
// both drivers.
func TestPhaseAccountingTaskMatchesBlocking(t *testing.T) {
	const P = 5
	wb := newTestWorld(t, P)
	err := wb.Run(func(p *Proc) {
		me := p.ID()
		p.Alloc(1)
		p.EnterPhase("setup")
		p.ComputeUs(float64(10 * (me + 1)))
		p.Barrier()
		p.EnterPhase("exchange")
		for i := 0; i < 40; i++ {
			p.WriteWord(GPtr{Proc: int32((me + 1) % P)}, uint64(i))
		}
		p.Barrier()
		p.EnterPhase("tail")
		p.ComputeUs(float64(7 * (P - me)))
	})
	if err != nil {
		t.Fatal(err)
	}

	wt := newTestWorld(t, P)
	err = wt.RunTasks(func(int) Task {
		pc, i := 0, 0
		return TaskFunc(func(tp *TProc) (sim.PollableWait, bool) {
			me := tp.ID()
			for {
				switch pc {
				case 0:
					tp.Alloc(1)
					tp.EnterPhase("setup")
					tp.ComputeUs(float64(10 * (me + 1)))
					pc = 1
				case 1:
					if w := tp.BarrierT(); w != nil {
						return w, false
					}
					tp.EnterPhase("exchange")
					pc = 2
				case 2:
					for ; i < 40; i++ {
						if w := tp.WriteWordT(GPtr{Proc: int32((me + 1) % P)}, uint64(i)); w != nil {
							return w, false
						}
					}
					pc = 3
				case 3:
					if w := tp.BarrierT(); w != nil {
						return w, false
					}
					tp.EnterPhase("tail")
					tp.ComputeUs(float64(7 * (P - me)))
					return nil, true
				}
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	names := wb.PhaseNames()
	if got := wt.PhaseNames(); !slices.Equal(got, names) || len(names) != 3 {
		t.Fatalf("phase names: Task %v, blocking %v", got, names)
	}
	for _, n := range names {
		if b, k := wb.PhaseTime(n), wt.PhaseTime(n); b != k || b == 0 {
			t.Errorf("phase %q: Task %v, blocking %v", n, k, b)
		}
	}
	if wb.Elapsed() != wt.Elapsed() {
		t.Errorf("makespan: Task %v, blocking %v", wt.Elapsed(), wb.Elapsed())
	}
}
