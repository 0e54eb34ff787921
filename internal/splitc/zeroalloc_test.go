package splitc

import (
	"runtime"
	"testing"

	"repro/internal/logp"
)

// TestBlockingDriverZeroAlloc pins that the blocking API adds no
// allocation to the primitives it drives: once the pools and queues have
// reached their high-water marks, a P = 2 body's windows of remote
// WriteWord, ReadWord, FetchAdd and StoreSync calls must not touch the
// heap. Every blocking method hands its resumable form to one driver as a
// closure; the closure must stay on the caller's stack. Processor 1 idles
// in the implied barrier, servicing the requests. As in am's
// TestShortMessagePathZeroAlloc, the gate is the minimum over several
// windows, because MemStats.Mallocs also counts runtime-internal
// allocations that land in one window at random.
func TestBlockingDriverZeroAlloc(t *testing.T) {
	const warm, windows, measured = 64, 5, 512
	w, err := NewWorld(2, logp.NOW(), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := ^uint64(0)
	err = w.Run(func(p *Proc) {
		g := p.Alloc(1)
		if p.ID() == 1 {
			return
		}
		peer := GPtr{Proc: 1, Off: g.Off}
		round := func(n int) {
			for i := 0; i < n; i++ {
				p.WriteWord(peer, uint64(i))
				p.ReadWord(peer)
				p.FetchAdd(peer, 1)
				p.StoreSync()
			}
		}
		round(warm)
		runtime.GC()
		var before, after runtime.MemStats
		for i := 0; i < windows; i++ {
			runtime.ReadMemStats(&before)
			round(measured)
			runtime.ReadMemStats(&after)
			got = min(got, after.Mallocs-before.Mallocs)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("blocking WriteWord/ReadWord/FetchAdd/StoreSync allocated at least %d times in each of %d windows of %d rounds, want 0", got, windows, measured)
	}
}
