package am

import (
	"testing"

	"repro/internal/logp"
	"repro/internal/sim"
)

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
