package am

import (
	"runtime"
	"testing"

	"repro/internal/logp"
	"repro/internal/sim"
)

// TestShortMessagePathZeroAlloc pins the zero-allocation property of the
// steady-state short-message path: once the message pool, the event heap,
// and the inboxes have reached their high-water marks, sending a request,
// delivering it, running its handler, and returning the window credit must
// not touch the heap. The measurement runs inside the sending body — the
// receiver's deliveries and handler invocations execute inline on the same
// goroutine under the engine's pollable-wait dispatch, so the window
// covers the complete send+receive path.
//
// MemStats.Mallocs is process-wide: it also counts runtime-internal
// allocations (for example the sudogs a goroutine hand-off needs after
// runtime.GC has flushed the per-P caches, when the hand-off lands on
// another P). Those hit one window at random; an allocation on the
// message path hits every window. So the gate is the minimum over
// several windows.
func TestShortMessagePathZeroAlloc(t *testing.T) {
	params := logp.NOW()
	eng := sim.New(sim.Config{Procs: 2})
	m := MustMachine(eng, params)
	const warm, windows, measured = 256, 5, 1024
	total := warm + windows*measured
	seen := 0
	handler := func(*Endpoint, *Token, Args) { seen++ }
	got := ^uint64(0)
	err := eng.RunEach([]func(*sim.Proc){
		func(p *sim.Proc) {
			ep := m.Endpoint(0)
			for i := 0; i < warm; i++ {
				ep.Request(1, ClassWrite, handler, Args{})
			}
			runtime.GC()
			var before, after runtime.MemStats
			for w := 0; w < windows; w++ {
				runtime.ReadMemStats(&before)
				for i := 0; i < measured; i++ {
					ep.Request(1, ClassWrite, handler, Args{})
				}
				runtime.ReadMemStats(&after)
				got = min(got, after.Mallocs-before.Mallocs)
			}
			ep.WaitUntil(func() bool { return seen == total }, "drain")
		},
		func(p *sim.Proc) {
			m.Endpoint(1).WaitUntil(func() bool { return seen == total }, "sink")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != total {
		t.Fatalf("handler ran %d times, want %d", seen, total)
	}
	if got != 0 {
		t.Errorf("steady-state short-message path allocated at least %d times in each of %d windows of %d messages, want 0", got, windows, measured)
	}
}

// TestMessagePoolRecycles checks the freelist actually cycles records:
// a long steady-state stream must not grow the pool past the in-flight
// high-water mark (window + wire + inbox).
func TestMessagePoolRecycles(t *testing.T) {
	params := logp.NOW()
	eng := sim.New(sim.Config{Procs: 2})
	m := MustMachine(eng, params)
	const n = 2000
	seen := 0
	handler := func(*Endpoint, *Token, Args) { seen++ }
	err := eng.RunEach([]func(*sim.Proc){
		func(p *sim.Proc) {
			ep := m.Endpoint(0)
			for i := 0; i < n; i++ {
				ep.Request(1, ClassWrite, handler, Args{})
			}
			ep.WaitUntil(func() bool { return seen == n }, "drain")
		},
		func(p *sim.Proc) {
			m.Endpoint(1).WaitUntil(func() bool { return seen == n }, "sink")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every data message and every credit record passes through the pool;
	// the live set at any instant is bounded by the window plus what the
	// wire and inbox can hold, far below the message count.
	if len(m.msgPool) > 4*params.Window+8 {
		t.Errorf("pool grew to %d records for a window of %d; recycling is not steady-state", len(m.msgPool), params.Window)
	}
}

// TestPoolingDisabledUnderReliability pins the ownership rule: with the
// reliability layer on (or a lossy injector attached), records may be
// referenced past delivery, so delivery-time recycling must be off.
func TestPoolingDisabledUnderReliability(t *testing.T) {
	eng := sim.New(sim.Config{Procs: 2})
	m := MustMachine(eng, logp.NOW())
	if !m.pooling {
		t.Fatal("pooling should start enabled")
	}
	m.SetReliability(Reliability{Enabled: true})
	if m.pooling {
		t.Error("pooling must be disabled while the reliability layer is on")
	}
	m.SetReliability(Reliability{})
	if !m.pooling {
		t.Error("pooling should re-enable when the reliability layer is torn down")
	}
}
