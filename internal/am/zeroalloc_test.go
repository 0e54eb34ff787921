package am_test

import (
	"runtime"
	"testing"

	"repro/internal/am"
	"repro/internal/logp"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestShortMessagePathZeroAlloc pins the zero-allocation property of the
// steady-state short-message path: once the message pool, the event heap,
// and the inboxes have reached their high-water marks, sending a request,
// delivering it, running its handler, and returning the window credit must
// not touch the heap — with no observer attached, with one, and with two
// through the machine's consumer list. The measurement runs inside the
// sending body — the receiver's deliveries and handler invocations execute
// inline on the same goroutine under the engine's pollable-wait dispatch,
// so the window covers the complete send+receive path.
//
// MemStats.Mallocs is process-wide: it also counts runtime-internal
// allocations (for example the sudogs a goroutine hand-off needs after
// runtime.GC has flushed the per-P caches, when the hand-off lands on
// another P). Those hit one window at random; an allocation on the
// message path hits every window. So the gate is the minimum over
// several windows.
func TestShortMessagePathZeroAlloc(t *testing.T) {
	const warm, windows, measured = 256, 5, 1024
	const total = warm + windows*measured
	digest := &trace.Digest{}
	for _, tc := range []struct {
		name  string
		hooks []am.Hooks
	}{
		{"no-consumer", nil},
		{"nop", []am.Hooks{am.NopHooks{}}},
		{"nop+digest", []am.Hooks{am.NopHooks{}, digest}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(sim.Config{Procs: 2})
			m := am.MustMachine(eng, logp.NOW())
			m.SetHooks(tc.hooks...)
			seen := 0
			handler := func(*am.Endpoint, *am.Token, am.Args) { seen++ }
			got := ^uint64(0)
			err := eng.RunEach([]func(*sim.Proc){
				func(p *sim.Proc) {
					ep := m.Endpoint(0)
					for i := 0; i < warm; i++ {
						ep.Request(1, am.ClassWrite, handler, am.Args{})
					}
					runtime.GC()
					var before, after runtime.MemStats
					for w := 0; w < windows; w++ {
						runtime.ReadMemStats(&before)
						for i := 0; i < measured; i++ {
							ep.Request(1, am.ClassWrite, handler, am.Args{})
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
		})
	}
	if got := digest.Events(); got != 2*total {
		t.Errorf("digest folded %d events, want %d sent and handled", got, 2*total)
	}
}
