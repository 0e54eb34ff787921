package scalekern

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/splitc"
)

// TestSteadyStateFootprint pins the live heap per simulated processor
// after a continuation-runtime run, with the world still reachable —
// the steady-state footprint that decides whether P = 1M fits in
// memory. P = 10k is past every dense-instrumentation cutoff
// (statsDetailMaxP, denseWinMaxP = 4096), so the measurement covers
// the sparse large-P representations that the million-processor rung
// actually uses.
//
// Budgets are 1.2x the measured values (3 914, 2 570 and 1 847 bytes
// per processor for radix, em3d and pray at P = 10k, Go 1.24),
// absorbing allocator and toolchain noise while still catching any
// per-processor cost that grows with machine size: an O(P) slip
// multiplies the figure a thousandfold at this P, and a dense operand
// cell table or a pending-wake list that keeps its dead entries would
// each add about 1 KB to radix.
func TestSteadyStateFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second large-P runs")
	}
	const P = 10_000
	cases := []struct {
		name   string
		budget float64 // bytes per processor
		run    func(w *splitc.World, cfg apps.Config) error
	}{
		{"scale-radix", 4700, func(w *splitc.World, cfg apps.Config) error {
			sh := &radixShared{
				k:      radixKeys(cfg),
				seed:   cfg.Seed,
				dest:   make([]splitc.GPtr, cfg.Procs),
				failed: make([]bool, cfg.Procs),
			}
			return w.RunTasks(func(id int) splitc.Task { return &radixTask{sh: sh} })
		}},
		{"scale-em3d", 3090, func(w *splitc.World, cfg apps.Config) error {
			sh := &em3dShared{
				b:     em3dWords(cfg),
				iters: em3dIters(cfg),
				seed:  cfg.Seed,
				gl:    make([]splitc.GPtr, cfg.Procs),
				gr:    make([]splitc.GPtr, cfg.Procs),
				gb:    make([]splitc.GPtr, cfg.Procs),
			}
			return w.RunTasks(func(id int) splitc.Task { return &em3dTask{sh: sh} })
		}},
		{"scale-pray", 2220, func(w *splitc.World, cfg apps.Config) error {
			sh := &prayShared{
				rounds: prayRounds(cfg),
				seed:   cfg.Seed,
				slot:   make([]splitc.GPtr, cfg.Procs),
				failed: make([]bool, cfg.Procs),
			}
			return w.RunTasks(func(id int) splitc.Task { return &prayTask{sh: sh} })
		}},
	}
	for _, tc := range cases {
		cfg := apps.Config{Procs: P, Seed: 1}.Norm()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err := apps.NewWorld(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := tc.run(w, cfg); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perProc := float64(after.HeapAlloc-before.HeapAlloc) / P
		t.Logf("%s: %.0f live bytes/proc at P=%d", tc.name, perProc, P)
		if perProc > tc.budget {
			t.Errorf("%s: %.0f live bytes/proc at P=%d exceeds the %v-byte budget — a per-processor cost is growing with machine size",
				tc.name, perProc, P, tc.budget)
		}
		runtime.KeepAlive(w)
	}
}
