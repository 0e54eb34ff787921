package splitc_test

import (
	"slices"
	"testing"

	"repro/internal/am"
	"repro/internal/depgraph"
	"repro/internal/logp"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/splitc"
	"repro/internal/trace"
)

// TestObservationDoesNotPerturbTasks is the RunTasks half of the
// observation contract (the Run half, on the paper applications, is
// depgraph's TestObservationDoesNotPerturbVirtualTime): the twin program
// — every primitive family — runs bare and with the profiler, a trace
// recorder and the dependency-graph builder attached together; makespan
// and message count must not move.
func TestObservationDoesNotPerturbTasks(t *testing.T) {
	const P = 8
	run := func(observe bool) *splitc.World {
		t.Helper()
		w, err := splitc.NewWorld(P, logp.NOW(), 42)
		if err != nil {
			t.Fatal(err)
		}
		if observe {
			w.Attach(prof.New(P), &trace.Recorder{}, depgraph.New(P, logp.NOW()))
		}
		res := make([]uint64, P)
		if err := w.RunTasks(func(int) splitc.Task { return splitc.NewTwinTask(res) }); err != nil {
			t.Fatalf("observe=%v: %v", observe, err)
		}
		return w
	}
	bare, seen := run(false), run(true)
	if err := prof.Attached(seen).Snapshot(seen).CheckConservation(); err != nil {
		t.Errorf("profiler attached but unsound: %v", err)
	}
	if b, s := bare.Elapsed(), seen.Elapsed(); b != s {
		t.Errorf("elapsed %v bare, %v observed", b, s)
	}
	if b, s := bare.Stats().TotalSent(), seen.Stats().TotalSent(); b != s {
		t.Errorf("%d messages bare, %d observed", b, s)
	}
}

// waitKinds records the kind of every wait each processor begins.
type waitKinds struct {
	am.NopHooks
	seq [][]string
}

func (h *waitKinds) WaitBegin(proc int, kind am.WaitKind, _ sim.Time) {
	h.seq[proc] = append(h.seq[proc], kind.String())
}

// TestWaitKindSequence pins the kind each primitive reports its waits
// under, on both drivers. At ΔL = 200 µs processor 0's nine pipelined
// writes outrun the eight-request window; its store sync, read,
// fetch-add and bulk get then each park once on their own kind, while
// processor 1 waits for the last write on a plain condition. Every
// barrier, the implied final one included, reports its store sync and
// its notification wait. A store sync reported as a data wait, or a
// window stall reported as anything else, changes the sequence.
func TestWaitKindSequence(t *testing.T) {
	const words, writes = 1000, 9
	want := [][]string{
		{"store", "barrier", "window", "window", "store", "read", "lock", "bulk", "store", "barrier"},
		{"store", "barrier", "data", "store", "barrier"},
	}
	params := logp.NOW()
	params.DeltaL = sim.FromMicros(200)
	for _, driver := range []string{"blocking", "task"} {
		t.Run(driver, func(t *testing.T) {
			w, err := splitc.NewWorld(2, params, 1)
			if err != nil {
				t.Fatal(err)
			}
			rec := &waitKinds{seq: make([][]string, 2)}
			w.Attach(rec)
			peer := splitc.GPtr{Proc: 1}
			flag := peer.Add(writes - 1)
			if driver == "blocking" {
				err = w.Run(func(p *splitc.Proc) {
					p.Alloc(words)
					p.Barrier()
					if p.ID() == 1 {
						mem := p.Local(peer, words)
						p.EP().WaitUntil(func() bool { return mem[writes-1] != 0 }, "flag")
						return
					}
					for i := 0; i < writes; i++ {
						p.WriteWord(peer.Add(i), uint64(i+1))
					}
					p.StoreSync()
					p.ReadWord(peer)
					p.FetchAdd(flag, 1)
					p.BulkGet(peer, words)
				})
			} else {
				err = w.RunTasks(func(id int) splitc.Task {
					steps := []func(t *splitc.TProc) sim.PollableWait{
						func(t *splitc.TProc) sim.PollableWait { t.Alloc(words); return nil },
						(*splitc.TProc).BarrierT,
					}
					if id == 1 {
						var mem []uint64
						steps = append(steps, func(t *splitc.TProc) sim.PollableWait {
							if mem != nil {
								return nil
							}
							mem = t.Local(peer, words)
							return t.EP().CondWait(am.WaitData, func() bool { return mem[writes-1] != 0 }, "flag")
						})
					} else {
						for i := 0; i < writes; i++ {
							steps = append(steps, func(t *splitc.TProc) sim.PollableWait { return t.WriteWordT(peer.Add(i), uint64(i+1)) })
						}
						steps = append(steps,
							(*splitc.TProc).StoreSyncT,
							func(t *splitc.TProc) sim.PollableWait { _, wt := t.ReadWordT(peer); return wt },
							func(t *splitc.TProc) sim.PollableWait { _, wt := t.FetchAddT(flag, 1); return wt },
							func(t *splitc.TProc) sim.PollableWait { _, wt := t.BulkGetT(peer, words); return wt },
						)
					}
					return splitc.TaskFunc(func(t *splitc.TProc) (sim.PollableWait, bool) {
						for ; len(steps) > 0; steps = steps[1:] {
							if wt := steps[0](t); wt != nil {
								return wt, false
							}
						}
						return nil, true
					})
				})
			}
			if err != nil {
				t.Fatal(err)
			}
			for id := range want {
				if got := rec.seq[id]; !slices.Equal(got, want[id]) {
					t.Errorf("proc %d waits %v, want %v", id, got, want[id])
				}
			}
		})
	}
}
