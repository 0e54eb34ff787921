// Benchmarks regenerating the paper's tables and figures, one per
// artifact, plus micro- and ablation benchmarks for the simulator itself.
// These run at a reduced scale so `go test -bench=.` finishes in minutes;
// cmd/repro regenerates the full-scale artifacts.
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro"
	"repro/internal/am"
	"repro/internal/calib"
	"repro/internal/logp"
	"repro/internal/sim"
)

// benchOpts is the reduced-scale configuration used by the per-artifact
// benchmarks.
func benchOpts() repro.Options {
	return repro.Options{
		Procs: 16,
		Scale: 1.0 / 1024,
		Seed:  1,
		Quick: true,
	}
}

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string, opts repro.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := repro.RunExperiment(id, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s: empty table", id)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1", benchOpts()) }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3", benchOpts()) }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2", benchOpts()) }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3", benchOpts()) }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4", benchOpts()) }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4", benchOpts()) }
func BenchmarkFig5a(b *testing.B)  { benchExperiment(b, "fig5a", benchOpts()) }
func BenchmarkFig5b(b *testing.B)  { benchExperiment(b, "fig5b", benchOpts()) }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5", benchOpts()) }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6", benchOpts()) }
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6", benchOpts()) }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7", benchOpts()) }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8", benchOpts()) }

// BenchmarkSuiteBaseline measures one unmodified-machine pass per app.
func BenchmarkSuiteBaseline(b *testing.B) {
	for _, a := range repro.Suite() {
		a := a
		b.Run(a.Name(), func(b *testing.B) {
			cfg := repro.AppConfig{Procs: 16, Scale: 1.0 / 1024, Seed: 1}
			for i := 0; i < b.N; i++ {
				if _, err := a.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepParallel measures the wall-clock effect of the run
// engine's worker pool on a multi-app Quick fig5b plan: the same
// deduplicated plan executed at jobs=1 and jobs=NumCPU. Tables are
// bit-identical at both settings; only elapsed time may differ. On a
// ≥4-core host the parallel pool should finish the sweep at least ~2x
// faster; on a single-core host the two settings coincide.
func BenchmarkSweepParallel(b *testing.B) {
	opts := benchOpts()
	opts.Apps = []string{"radix", "em3d-read", "em3d-write", "sample", "nowsort"}
	for _, jobs := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			o := opts
			o.Jobs = jobs
			for i := 0; i < b.N; i++ {
				plan, err := repro.PlanExperiments([]string{"fig5b"}, o)
				if err != nil {
					b.Fatal(err)
				}
				store := repro.NewRunStore()
				if err := repro.NewRunner(o, nil).RunInto(store, plan); err != nil {
					b.Fatal(err)
				}
				tab, err := repro.RenderExperiment("fig5b", o, store)
				if err != nil {
					b.Fatal(err)
				}
				if len(tab.Rows) == 0 {
					b.Fatal("empty table")
				}
			}
			b.ReportMetric(float64(runtime.NumCPU()), "host-cores")
		})
	}
}

// --- Simulator microbenchmarks -----------------------------------------

// BenchmarkEngineDispatch measures the scheduler's block/wake cycle: one
// processor repeatedly sleeps one tick, which schedules a wake event,
// hands the sleep to the scheduler, and is resumed when the event fires —
// one round trip from the body's stack to the scheduler's and back.
func BenchmarkEngineDispatch(b *testing.B) {
	b.ReportAllocs()
	eng := sim.New(sim.Config{Procs: 1})
	err := eng.Run(func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShortMessage measures the steady-state cost of simulating one
// short active message end to end: send overhead, NIC injection, wire
// flight, receive overhead, handler, and the firmware credit return. The
// hot path is required to be allocation-free (see TestShortMessageZeroAlloc
// in internal/am).
func BenchmarkShortMessage(b *testing.B) {
	b.ReportAllocs()
	eng := sim.New(sim.Config{Procs: 2})
	m := am.MustMachine(eng, logp.NOW())
	seen := 0
	handler := func(*am.Endpoint, *am.Token, am.Args) { seen++ }
	err := eng.RunEach([]func(*sim.Proc){
		func(p *sim.Proc) {
			ep := m.Endpoint(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ep.Request(1, am.ClassWrite, handler, am.Args{})
			}
			ep.WaitUntil(func() bool { return seen == b.N }, "drain")
			b.StopTimer()
		},
		func(p *sim.Proc) {
			m.Endpoint(1).WaitUntil(func() bool { return seen == b.N }, "sink")
		},
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBulkTransfer measures the cost of simulating bulk data motion:
// each iteration stores one 64 KB transfer (fragmented by the AM layer)
// to the neighbor and waits for every fragment to be applied.
func BenchmarkBulkTransfer(b *testing.B) {
	const transfer = 64 << 10
	b.SetBytes(transfer)
	b.ReportAllocs()
	eng := sim.New(sim.Config{Procs: 2})
	m := am.MustMachine(eng, logp.NOW())
	var got int
	handler := func(ep *am.Endpoint, tok *am.Token, args am.Args, data []byte) { got += len(data) }
	data := make([]byte, transfer)
	err := eng.RunEach([]func(*sim.Proc){
		func(p *sim.Proc) {
			ep := m.Endpoint(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ep.StoreLarge(1, am.ClassWrite, handler, am.Args{}, data)
				ep.WaitUntilFor(am.WaitStore, func() bool { return ep.TotalOutstanding() == 0 }, "store-sync")
			}
			b.StopTimer()
		},
		func(p *sim.Proc) {
			m.Endpoint(1).WaitUntil(func() bool { return got == b.N*transfer }, "sink")
		},
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRoundTrip measures the real cost of simulating one AM round
// trip (the simulator's fundamental operation).
func BenchmarkRoundTrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := calib.RoundTrip(logp.NOW()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMessageThroughput reports simulated messages per real second.
func BenchmarkMessageThroughput(b *testing.B) {
	const msgs = 10000
	for i := 0; i < b.N; i++ {
		eng := sim.New(sim.Config{Procs: 2})
		m := am.MustMachine(eng, logp.NOW())
		seen := 0
		err := eng.RunEach([]func(*sim.Proc){
			func(p *sim.Proc) {
				ep := m.Endpoint(0)
				for j := 0; j < msgs; j++ {
					ep.Request(1, am.ClassWrite, func(*am.Endpoint, *am.Token, am.Args) { seen++ }, am.Args{})
				}
				ep.WaitUntil(func() bool { return seen == msgs }, "drain")
			},
			func(p *sim.Proc) {
				m.Endpoint(1).WaitUntil(func() bool { return seen == msgs }, "sink")
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(msgs), "msgs/op")
}

// BenchmarkSchedulerFastPath measures checkpoints that keep the CPU
// without leaving the body's stack (DESIGN.md decision 1, §11).
func BenchmarkSchedulerFastPath(b *testing.B) {
	eng := sim.New(sim.Config{Procs: 1})
	err := eng.Run(func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
			p.Checkpoint()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	if eng.Switches() != 0 {
		b.Fatalf("fast path took %d switches", eng.Switches())
	}
}

// BenchmarkWindowAblation varies the flow-control window (DESIGN.md
// decision 2): the effective gap at large L is RTT/W, so smaller windows
// slow a latency-stretched burst proportionally.
func BenchmarkWindowAblation(b *testing.B) {
	for _, window := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("W=%d", window), func(b *testing.B) {
			params := logp.NOW()
			params.Window = window
			params.DeltaL = sim.FromMicros(100)
			var g sim.Time
			for i := 0; i < b.N; i++ {
				m, err := calib.Calibrate(params)
				if err != nil {
					b.Fatal(err)
				}
				g = m.G
			}
			b.ReportMetric(g.Micros(), "effective-g-µs")
		})
	}
}

// BenchmarkBarrier measures the real cost of simulating one dissemination
// barrier across 32 processors.
func BenchmarkBarrier(b *testing.B) {
	w, err := repro.NewWorld(32, repro.NOW(), 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Run(func(p *repro.Proc) {
		for i := 0; i < b.N; i++ {
			p.Barrier()
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLockContentionAblation quantifies how the spin-lock retry
// traffic reacts to added overhead (the Barnes livelock mechanism).
func BenchmarkLockContentionAblation(b *testing.B) {
	for _, dO := range []float64{0, 25} {
		b.Run(fmt.Sprintf("dO=%.0f", dO), func(b *testing.B) {
			params := repro.NOW()
			params.DeltaO = repro.FromMicros(dO)
			for i := 0; i < b.N; i++ {
				w, err := repro.NewWorld(8, params, 1)
				if err != nil {
					b.Fatal(err)
				}
				var lock repro.GPtr
				var failed int64
				err = w.Run(func(p *repro.Proc) {
					if p.ID() == 0 {
						lock = p.Alloc(1)
					}
					p.Barrier()
					for j := 0; j < 3; j++ {
						p.Lock(lock)
						p.ComputeUs(20)
						p.Unlock(lock)
						p.StoreSync()
					}
					p.Barrier()
					failed += p.FailedLockAttempts()
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(failed), "failed-locks")
			}
		})
	}
}

// BenchmarkScaleAblation shows how simulated run time scales with input
// size for a representative app (sanity for the scaling substitution).
func BenchmarkScaleAblation(b *testing.B) {
	for _, scale := range []float64{1.0 / 4096, 1.0 / 1024, 1.0 / 256} {
		b.Run(fmt.Sprintf("scale=1_%d", int(1/scale)), func(b *testing.B) {
			a, err := repro.AppByName("radix")
			if err != nil {
				b.Fatal(err)
			}
			var virt sim.Time
			for i := 0; i < b.N; i++ {
				res, err := a.Run(repro.AppConfig{Procs: 16, Scale: scale, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				virt = res.Elapsed
			}
			b.ReportMetric(virt.Millis(), "virtual-ms")
		})
	}
}
