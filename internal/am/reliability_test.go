package am

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/logp"
	"repro/internal/sim"
)

// testInjector is a minimal FaultInjector for protocol tests (the real
// rule engine lives in internal/fault, which sits above this package).
// The callbacks see the per-run transmission ordinal (1-based).
type testInjector struct {
	drop func(w WireMsg, n int64) bool
	dup  func(w WireMsg, n int64) bool
	seen int64
}

func (ti *testInjector) OnWire(w WireMsg) FaultAction {
	ti.seen++
	var act FaultAction
	if ti.drop != nil && ti.drop(w, ti.seen) {
		act.Drop = true
	}
	if ti.dup != nil && ti.dup(w, ti.seen) {
		act.Duplicate = true
	}
	return act
}

func (ti *testInjector) ChargeExtra(proc int, from, d sim.Time) sim.Time { return 0 }
func (ti *testInjector) Lossy() bool                                     { return true }

// runRelPair runs body0/body1 on a two-processor machine with the
// reliability layer enabled and an optional injector attached.
func runRelPair(t *testing.T, params logp.Params, cfg Reliability, inj FaultInjector, body0, body1 func(*Endpoint)) (*Machine, error) {
	t.Helper()
	eng := sim.New(sim.Config{Procs: 2})
	m := MustMachine(eng, params)
	m.SetReliability(cfg)
	if inj != nil {
		m.SetFaults(inj)
	}
	err := eng.RunEach([]func(*sim.Proc){
		func(p *sim.Proc) { body0(m.Endpoint(0)) },
		func(p *sim.Proc) { body1(m.Endpoint(1)) },
	})
	return m, err
}

// TestReliableLosslessTimingUnchanged: on a perfect wire the protocol
// must not retransmit and must not perturb message timing — sequencing
// and acks are NIC bookkeeping, invisible to the host.
func TestReliableLosslessTimingUnchanged(t *testing.T) {
	params := logp.NOW()
	workload := func(handled *int) (func(*Endpoint), func(*Endpoint)) {
		const n = 30
		return func(ep *Endpoint) {
				for i := 0; i < n; i++ {
					ep.Request(1, ClassWrite, func(*Endpoint, *Token, Args) { *handled++ }, Args{})
					if i%5 == 0 {
						ep.Compute(sim.FromMicros(3))
					}
				}
				ep.WaitUntil(func() bool { return *handled == n }, "drain")
			}, func(ep *Endpoint) {
				ep.WaitUntil(func() bool { return *handled == n }, "sink")
			}
	}
	var hPlain int
	plain := runPair(t, params, func(ep *Endpoint) {
		b0, _ := workload(&hPlain)
		b0(ep)
	}, func(ep *Endpoint) {
		_, b1 := workload(&hPlain)
		b1(ep)
	})
	var hRel int
	b0, b1 := workload(&hRel)
	rel, err := runRelPair(t, params, Reliability{Enabled: true}, nil, b0, b1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rel.eng.MaxClock(), plain.eng.MaxClock(); got != want {
		t.Errorf("reliable lossless run ended at %v, plain at %v", got.Micros(), want.Micros())
	}
	if n := rel.Stats().Retransmits; n != 0 {
		t.Errorf("lossless wire retransmitted %d times", n)
	}
	if n := rel.Stats().DupsDiscarded; n != 0 {
		t.Errorf("lossless wire discarded %d duplicates", n)
	}
}

// TestRetransmitDoesNotDoubleConsumeCredit: a dropped request is
// retransmitted by the NIC, and the retransmission must reuse the credit
// the original consumed — with a window of 2 and every third first
// transmission dropped, a double consume would wedge the sender
// (deadlock) or overfill the window.
func TestRetransmitDoesNotDoubleConsumeCredit(t *testing.T) {
	params := logp.NOW()
	params.Window = 2
	handled := 0
	const n = 24
	inj := &testInjector{drop: func(w WireMsg, _ int64) bool {
		return !w.Retransmit && !w.Reply && w.Seq%3 == 0
	}}
	m, err := runRelPair(t, params, Reliability{Enabled: true}, inj,
		func(ep *Endpoint) {
			for i := 0; i < n; i++ {
				ep.Request(1, ClassWrite, func(*Endpoint, *Token, Args) { handled++ }, Args{})
			}
			ep.WaitUntil(func() bool { return handled == n }, "drain")
		},
		func(ep *Endpoint) {
			ep.WaitUntil(func() bool { return handled == n }, "sink")
		})
	if err != nil {
		t.Fatal(err)
	}
	if handled != n {
		t.Errorf("handled %d of %d requests", handled, n)
	}
	if m.Stats().WireDrops == 0 {
		t.Fatal("injector dropped nothing; predicate dead")
	}
	if got, want := m.Stats().Retransmits, m.Stats().WireDrops; got < want {
		t.Errorf("retransmits %d < drops %d: some loss never repaired", got, want)
	}
}

// TestDedupDoesNotDoubleRunHandler: with every transmission duplicated
// on the wire, receiver-side dedup must discard the copies at the NIC —
// each handler runs exactly once.
func TestDedupDoesNotDoubleRunHandler(t *testing.T) {
	params := logp.NOW()
	handled := 0
	replies := 0
	const n = 16
	inj := &testInjector{dup: func(WireMsg, int64) bool { return true }}
	m, err := runRelPair(t, params, Reliability{Enabled: true}, inj,
		func(ep *Endpoint) {
			for i := 0; i < n; i++ {
				ep.Request(1, ClassRead, func(ep *Endpoint, tok *Token, a Args) {
					handled++
					ep.Reply(tok, func(*Endpoint, *Token, Args) { replies++ }, Args{})
				}, Args{})
			}
			ep.WaitUntil(func() bool { return replies == n }, "drain")
		},
		func(ep *Endpoint) {
			// Wait on handled (which this processor's own polls advance);
			// replies land back on proc 0 and wouldn't wake this one.
			ep.WaitUntil(func() bool { return handled == n }, "sink")
		})
	if err != nil {
		t.Fatal(err)
	}
	if handled != n || replies != n {
		t.Errorf("handled/replied %d/%d, want %d/%d", handled, replies, n, n)
	}
	if m.Stats().DupsDiscarded == 0 {
		t.Error("no duplicates discarded despite duplicating every transmission")
	}
}

// TestReliabilityFIFOUnderDrops: drops reorder raw arrivals (the
// retransmission lands after its successors), but the resequencer must
// restore per-stream send order before the host sees anything.
func TestReliabilityFIFOUnderDrops(t *testing.T) {
	params := logp.NOW()
	var order []uint64
	const n = 40
	inj := &testInjector{drop: func(w WireMsg, _ int64) bool {
		return !w.Retransmit && !w.Reply && w.Seq%4 == 1 && w.Seq > 1
	}}
	m, err := runRelPair(t, params, Reliability{Enabled: true}, inj,
		func(ep *Endpoint) {
			for i := 0; i < n; i++ {
				ep.Request(1, ClassWrite, func(ep *Endpoint, tok *Token, a Args) {
					order = append(order, a[0])
				}, Args{uint64(i)})
			}
			ep.WaitUntil(func() bool { return len(order) == n }, "drain")
		},
		func(ep *Endpoint) {
			ep.WaitUntil(func() bool { return len(order) == n }, "sink")
		})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().WireDrops == 0 {
		t.Fatal("injector dropped nothing; predicate dead")
	}
	for i, v := range order {
		if v != uint64(i) {
			t.Fatalf("handler order broke FIFO at %d: got seq %d (full order %v)", i, v, order)
		}
	}
}

// TestDeliveryErrorAfterRetryCap: a wire that eats everything must abort
// the run with a typed *DeliveryError once the retry budget is spent.
func TestDeliveryErrorAfterRetryCap(t *testing.T) {
	before := runtime.NumGoroutine()
	params := logp.NOW()
	inj := &testInjector{drop: func(WireMsg, int64) bool { return true }}
	handled := false
	_, err := runRelPair(t, params,
		Reliability{Enabled: true}, inj,
		func(ep *Endpoint) {
			ep.Request(1, ClassWrite, func(*Endpoint, *Token, Args) { handled = true }, Args{})
			ep.WaitUntil(func() bool { return handled }, "never")
		},
		func(ep *Endpoint) {
			ep.WaitUntil(func() bool { return handled }, "never")
		})
	if err == nil {
		t.Fatal("run on a fully lossy wire succeeded")
	}
	var de *DeliveryError
	if !errors.As(err, &de) {
		t.Fatalf("error %v is not a *DeliveryError", err)
	}
	if de.Src != 0 || de.Dst != 1 || de.Seq != 1 {
		t.Errorf("DeliveryError identifies %d→%d seq %d, want 0→1 seq 1", de.Src, de.Dst, de.Seq)
	}
	if de.Attempts != 13 {
		t.Errorf("Attempts = %d, want 13 (1 original + 12 retries)", de.Attempts)
	}
	if handled {
		t.Error("handler ran despite every transmission dropping")
	}
	// The abort leaves no processor behind. More, not different: an
	// earlier test's goroutine may still be on its way out when before
	// is read (sim.TestAbortLeaksNothing).
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the run, %d after", before, after)
	}
}

// TestReliabilityConservationProperty: under random lossy traffic every
// request is handled exactly once — the reliable extension of the
// lossless conservation property, covering dedup (no double run) and
// credit recycling (no wedge) at once.
func TestReliabilityConservationProperty(t *testing.T) {
	f := func(seed int64, dropPct uint8) bool {
		prob := float64(dropPct%30) / 100 // 0–29% per-transmission loss
		rng := rand.New(rand.NewSource(seed))
		inj := &testInjector{drop: func(w WireMsg, _ int64) bool {
			return rng.Float64() < prob
		}}
		eng := sim.New(sim.Config{Procs: 3, Seed: seed})
		m := MustMachine(eng, logp.NOW())
		m.SetReliability(Reliability{Enabled: true})
		m.SetFaults(inj)
		sent := 0
		handled := 0
		doneFrom := make([]int, 3)
		err := eng.Run(func(p *sim.Proc) {
			ep := m.Endpoint(p.ID())
			r := p.Rand()
			n := r.Intn(25) + 1
			for i := 0; i < n; i++ {
				dst := (p.ID() + 1 + r.Intn(2)) % 3
				sent++
				ep.Request(dst, ClassWrite, func(*Endpoint, *Token, Args) { handled++ }, Args{})
			}
			me := p.ID()
			for d := 0; d < 3; d++ {
				if d != me {
					ep.Request(d, ClassSync, func(ep *Endpoint, tok *Token, a Args) {
						doneFrom[ep.ID()]++
					}, Args{})
				}
			}
			ep.WaitUntil(func() bool { return doneFrom[me] == 2 }, "peers")
		})
		return err == nil && handled == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
