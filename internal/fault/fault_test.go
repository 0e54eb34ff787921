package fault

import (
	"errors"
	"math"
	"testing"

	"repro/internal/am"
	"repro/internal/logp"
	"repro/internal/sim"
)

func wmsg(src, dst, class int) am.WireMsg {
	return am.WireMsg{Src: src, Dst: dst, Class: am.Class(class)}
}

func TestMatch(t *testing.T) {
	cases := []struct {
		m    Match
		w    am.WireMsg
		want bool
	}{
		{Any(), wmsg(3, 7, 2), true},
		{Match{Src: 3, Dst: -1, Class: -1}, wmsg(3, 7, 2), true},
		{Match{Src: 4, Dst: -1, Class: -1}, wmsg(3, 7, 2), false},
		{Match{Src: -1, Dst: 7, Class: -1}, wmsg(3, 7, 2), true},
		{Match{Src: -1, Dst: 6, Class: -1}, wmsg(3, 7, 2), false},
		{Match{Src: -1, Dst: -1, Class: 2}, wmsg(3, 7, 2), true},
		{Match{Src: -1, Dst: -1, Class: 1}, wmsg(3, 7, 2), false},
		{Match{}, wmsg(0, 0, 0), true}, // zero value is a real selector
		{Match{}, wmsg(0, 1, 0), false},
	}
	for i, c := range cases {
		if got := c.m.matches(c.w); got != c.want {
			t.Errorf("case %d: %+v matches %+v = %v, want %v", i, c.m, c.w, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Plan{
		{Drops: []DropRule{{Match: Any(), Prob: -0.1}}},
		{Drops: []DropRule{{Match: Any(), Prob: 1.5}}},
		{Drops: []DropRule{{Match: Any(), Nth: -1}}},
		{Dups: []DupRule{{Match: Any(), Prob: 2}}},
		{ProcDelays: []ProcDelay{{Proc: -1, Extra: 1}}},
		{ProcDelays: []ProcDelay{{Proc: 0, Extra: -1}}},
		{Drops: []DropRule{{Match: Any(), Prob: math.NaN()}}},
		{Dups: []DupRule{{Match: Any(), Prob: math.NaN()}}},
	}
	for i, p := range bad {
		if _, err := New(p, 1); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, p)
		}
	}
	good := Plan{
		Drops:      []DropRule{{Match: Any(), Prob: 0.5}, {Match: Any(), Nth: 3}},
		Dups:       []DupRule{{Match: Any(), Prob: 1}},
		ProcDelays: []ProcDelay{{Proc: 2, At: 50, Extra: 1000}},
	}
	if _, err := New(good, 1); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
	if !good.Lossy() {
		t.Error("plan with drops not Lossy")
	}
	if good.Empty() {
		t.Error("non-empty plan reported Empty")
	}
	if !(Plan{}).Empty() || (Plan{}).Lossy() {
		t.Error("zero plan must be Empty and not Lossy")
	}
}

// TestSeedDeterminism: equal plans with equal seeds must make identical
// decisions over identical transmission sequences; a different seed must
// diverge somewhere.
func TestSeedDeterminism(t *testing.T) {
	plan := Plan{
		Drops: []DropRule{{Match: Any(), Prob: 0.3}},
		Dups:  []DupRule{{Match: Any(), Prob: 0.2}},
	}
	decisions := func(seed int64) []am.FaultAction {
		in := MustNew(plan, seed)
		var out []am.FaultAction
		for i := 0; i < 200; i++ {
			out = append(out, in.OnWire(wmsg(i%8, (i+3)%8, 0)))
		}
		return out
	}
	a, b := decisions(7), decisions(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at transmission %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := decisions(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 made identical decisions over 200 draws")
	}
}

// TestNthDrop: Nth rules are deterministic single-shots counted over
// matching transmissions only, with no PRNG involvement.
func TestNthDrop(t *testing.T) {
	in := MustNew(Plan{
		Drops: []DropRule{{Match: Match{Src: 1, Dst: -1, Class: -1}, Nth: 2}},
	}, 1)
	seq := []struct {
		w    am.WireMsg
		drop bool
	}{
		{wmsg(0, 1, 0), false}, // not matching: does not advance the counter
		{wmsg(1, 2, 0), false}, // 1st match
		{wmsg(1, 3, 0), true},  // 2nd match: dropped
		{wmsg(1, 4, 0), false}, // 3rd: single-shot is spent
	}
	for i, s := range seq {
		if got := in.OnWire(s.w).Drop; got != s.drop {
			t.Errorf("transmission %d: Drop = %v, want %v", i, got, s.drop)
		}
	}
}

// TestProcDelayFiresOnce: the one-off stall attaches to the first charge
// ending at or after At, on the named processor only, exactly once.
func TestProcDelayFiresOnce(t *testing.T) {
	in := MustNew(Plan{
		ProcDelays: []ProcDelay{{Proc: 2, At: 100, Extra: 1000}},
	}, 1)
	if got := in.ChargeExtra(2, 0, 50); got != 0 {
		t.Errorf("charge ending before At stalled: %v", got)
	}
	if got := in.ChargeExtra(1, 90, 20); got != 0 {
		t.Errorf("wrong processor stalled: %v", got)
	}
	if got := in.ChargeExtra(2, 90, 20); got != 1000 {
		t.Errorf("first charge ending past At = %v, want 1000", got)
	}
	if got := in.ChargeExtra(2, 200, 50); got != 0 {
		t.Errorf("one-off stall fired twice: %v", got)
	}
}

// TestDrawIsolation: probability draws happen only for matching rules, so
// traffic a rule ignores cannot shift its schedule.
func TestDrawIsolation(t *testing.T) {
	plan := Plan{Drops: []DropRule{{Match: Match{Src: 1, Dst: -1, Class: -1}, Prob: 0.5}}}
	run := func(noise bool) []bool {
		in := MustNew(plan, 42)
		var out []bool
		for i := 0; i < 100; i++ {
			if noise {
				in.OnWire(wmsg(0, 2, 0)) // never matches
			}
			out = append(out, in.OnWire(wmsg(1, 2, 0)).Drop)
		}
		return out
	}
	quiet, noisy := run(false), run(true)
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("unmatched traffic perturbed rule draws at transmission %d", i)
		}
	}
}

// TestDelaysSaturate: stalls that sum past the clock saturate at the
// largest duration instead of wrapping negative, which the machine would
// silently drop.
func TestDelaysSaturate(t *testing.T) {
	huge := ProcDelay{Proc: 0, At: 0, Extra: math.MaxInt64}
	in := MustNew(Plan{ProcDelays: []ProcDelay{huge, huge}}, 1)
	if got := in.ChargeExtra(0, 0, sim.Millisecond); got != math.MaxInt64 {
		t.Errorf("two MaxInt64 stalls sum to %v, want the saturated %v", got, sim.Time(math.MaxInt64))
	}
}

// TestOverflowingPlanFailsRun: a plan Validate accepts whose stalls
// carry a clock past int64 fails the run with the typed
// am.ErrFaultOverflow, whichever charge the stalls stretch: a compute
// ("slowdown") or the send overhead a request pays before its message
// reaches the wire ("wire delay").
func TestOverflowingPlanFailsRun(t *testing.T) {
	huge := ProcDelay{Proc: 0, At: 0, Extra: math.MaxInt64}
	for name, body := range map[string]func(ep *am.Endpoint){
		"slowdown": func(ep *am.Endpoint) { ep.Compute(sim.Millisecond) },
		"wire delay": func(ep *am.Endpoint) {
			ep.Request(1, am.ClassWrite, func(*am.Endpoint, *am.Token, am.Args) {}, am.Args{})
		},
	} {
		t.Run(name, func(t *testing.T) {
			eng := sim.New(sim.Config{Procs: 2})
			m := am.MustMachine(eng, logp.NOW())
			m.SetFaults(MustNew(Plan{ProcDelays: []ProcDelay{huge, huge}}, 1))
			err := eng.Run(func(p *sim.Proc) {
				if p.ID() == 0 {
					body(m.Endpoint(0))
				}
			})
			if !errors.Is(err, am.ErrFaultOverflow) {
				t.Errorf("err = %v, want am.ErrFaultOverflow", err)
			}
		})
	}
}

// FuzzPlan builds plans of every rule kind — two copies of each chosen
// kind, so stalls also sum — from arbitrary values: NaN, ±Inf and
// negative durations included. New must accept exactly the plans
// Validate accepts, and an accepted injector must never hand the machine
// a negative duration.
func FuzzPlan(f *testing.F) {
	f.Add(uint8(0x7), 0.5, int64(3), int64(1000), int8(1), int64(50), int64(10))
	f.Add(uint8(0x4), 0.0, int64(0), int64(1_000_000), int8(0), int64(0), int64(1))
	f.Add(uint8(0x4), 0.0, int64(0), int64(math.MaxInt64), int8(0), int64(0), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, kinds uint8, prob float64, nth, extra int64, proc int8, at, d int64) {
		var plan Plan
		for range 2 {
			if kinds&1 != 0 {
				plan.Drops = append(plan.Drops, DropRule{Match: Any(), Prob: prob, Nth: nth})
			}
			if kinds&2 != 0 {
				plan.Dups = append(plan.Dups, DupRule{Match: Any(), Prob: prob, Nth: nth})
			}
			if kinds&4 != 0 {
				plan.ProcDelays = append(plan.ProcDelays, ProcDelay{Proc: int(proc), At: sim.Time(at), Extra: sim.Time(extra)})
			}
		}
		inj, err := New(plan, 1)
		if verr := plan.Validate(); (err == nil) != (verr == nil) {
			t.Fatalf("New error %v, Validate error %v", err, verr)
		}
		if err != nil {
			return
		}
		// The machine charges a positive duration from a non-negative
		// clock; the probes start before and at the stall's instant.
		start, dur := sim.Time(at&math.MaxInt64), sim.Time(d&math.MaxInt64|1)
		for _, now := range []sim.Time{0, start} {
			if x := inj.ChargeExtra(int(proc), now, dur); x < 0 {
				t.Fatalf("ChargeExtra(%d, %v, %v) = %v", proc, now, dur, x)
			}
			inj.OnWire(wmsg(0, 1, 0))
		}
	})
}
