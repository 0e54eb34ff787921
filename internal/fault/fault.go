// Package fault turns the simulator's perfect wire into a perturbable
// one: a Plan is a declarative, seed-deterministic schedule of injectable
// events — message drops, duplications and one-off processor stalls —
// compiled by New into an Injector that plugs into the Active Message
// layer's am.FaultInjector seam (am.Machine.SetFaults).
//
// Determinism: the injector owns a single rand.Rand seeded at
// construction, and the machine consults it synchronously on the
// simulating goroutine — once per physical transmission, in injection
// order, and once per explicit processor charge, in charge order. Both
// orders are themselves deterministic properties of the simulation, so
// two runs with equal seeds and equal plans inject exactly the same
// faults at exactly the same virtual instants; jobs-level parallelism in
// the experiment harness cannot perturb them because each simulation is
// single-goroutine. Probability draws happen only for matching rules, in
// rule-declaration order, which makes the schedule insensitive to
// unrelated traffic.
//
// Lossy plans (any drop or duplication rule) require the AM reliability
// layer: without it a dropped message loses a window credit forever and a
// duplicate runs its handler twice. The apps layer enforces the pairing
// at world construction.
package fault

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/am"
	"repro/internal/sim"
)

// Match selects physical wire transmissions. The zero value matches the
// transmission from processor 0 to processor 0 with class 0 — use Any()
// as the starting point and restrict from there.
type Match struct {
	// Src and Dst restrict the sending / receiving processor; negative
	// matches any.
	Src, Dst int
	// Class restricts the traffic class; negative matches any.
	Class int
}

// Any returns a Match that matches every transmission.
func Any() Match { return Match{Src: -1, Dst: -1, Class: -1} }

func (m Match) matches(w am.WireMsg) bool {
	if m.Src >= 0 && w.Src != m.Src {
		return false
	}
	if m.Dst >= 0 && w.Dst != m.Dst {
		return false
	}
	if m.Class >= 0 && int(w.Class) != m.Class {
		return false
	}
	return true
}

// DropRule loses matching transmissions on the wire: each independently
// with probability Prob, or — when Nth > 0 — exactly the Nth matching
// transmission (1-based), a deterministic single-shot predicate.
type DropRule struct {
	Match Match
	Prob  float64
	Nth   int64
}

// DupRule duplicates matching transmissions, with the same Prob/Nth
// semantics as DropRule. Both copies arrive at the same instant; the
// reliability layer's dedup discards the second at the receiving NIC.
type DupRule struct {
	Match Match
	Prob  float64
	Nth   int64
}

// ProcDelay stalls processor Proc once, for Extra, appended to its first
// explicit charge ending at or after At — the one-off injected delay of
// the Afzal/Hager/Wellein propagation experiment. A processor that never
// charges after At absorbs the delay trivially (it is never injected).
type ProcDelay struct {
	Proc  int
	At    sim.Time
	Extra sim.Time
}

// Plan is a declarative schedule of injectable faults. The zero value is
// the perfect wire.
type Plan struct {
	Drops      []DropRule
	Dups       []DupRule
	ProcDelays []ProcDelay
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return len(p.Drops) == 0 && len(p.Dups) == 0 && len(p.ProcDelays) == 0
}

// Lossy reports whether the plan can drop or duplicate transmissions,
// which requires the AM reliability layer.
func (p Plan) Lossy() bool { return len(p.Drops) > 0 || len(p.Dups) > 0 }

// Validate checks rule parameters.
func (p Plan) Validate() error {
	for i, r := range p.Drops {
		if !(r.Prob >= 0 && r.Prob <= 1) {
			return fmt.Errorf("fault: Drops[%d].Prob %v outside [0,1]", i, r.Prob)
		}
		if r.Nth < 0 {
			return fmt.Errorf("fault: Drops[%d].Nth %d negative", i, r.Nth)
		}
	}
	for i, r := range p.Dups {
		if !(r.Prob >= 0 && r.Prob <= 1) {
			return fmt.Errorf("fault: Dups[%d].Prob %v outside [0,1]", i, r.Prob)
		}
		if r.Nth < 0 {
			return fmt.Errorf("fault: Dups[%d].Nth %d negative", i, r.Nth)
		}
	}
	for i, r := range p.ProcDelays {
		if r.Proc < 0 {
			return fmt.Errorf("fault: ProcDelays[%d].Proc %d negative", i, r.Proc)
		}
		if r.Extra < 0 {
			return fmt.Errorf("fault: ProcDelays[%d].Extra %v negative", i, r.Extra)
		}
	}
	return nil
}

// Injector is a compiled Plan: it implements am.FaultInjector and keeps
// the per-rule match counters and the seeded PRNG that make the schedule
// deterministic. One Injector serves one simulation run; build a fresh
// one per run.
type Injector struct {
	plan Plan
	rng  *rand.Rand

	dropSeen  []int64
	dupSeen   []int64
	procFired []bool
}

var _ am.FaultInjector = (*Injector)(nil)

// New validates plan and compiles it into an Injector whose probability
// draws are governed by seed.
func New(plan Plan, seed int64) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		plan:      plan,
		rng:       rand.New(rand.NewSource(seed*6_364_136_223_846_793 + 1_442_695_040_888_963_407)),
		dropSeen:  make([]int64, len(plan.Drops)),
		dupSeen:   make([]int64, len(plan.Dups)),
		procFired: make([]bool, len(plan.ProcDelays)),
	}, nil
}

// MustNew is New for known-good plans.
func MustNew(plan Plan, seed int64) *Injector {
	inj, err := New(plan, seed)
	if err != nil {
		panic(err)
	}
	return inj
}

// Lossy implements am.FaultInjector.
func (in *Injector) Lossy() bool { return in.plan.Lossy() }

// fire evaluates one Prob/Nth rule against its matching-transmission
// counter (already incremented to count this transmission).
func (in *Injector) fire(prob float64, nth, seen int64) bool {
	if nth > 0 {
		return seen == nth
	}
	return prob > 0 && in.rng.Float64() < prob
}

// OnWire implements am.FaultInjector.
func (in *Injector) OnWire(w am.WireMsg) am.FaultAction {
	var act am.FaultAction
	for i, r := range in.plan.Drops {
		if !r.Match.matches(w) {
			continue
		}
		in.dropSeen[i]++
		if in.fire(r.Prob, r.Nth, in.dropSeen[i]) {
			act.Drop = true
		}
	}
	for i, r := range in.plan.Dups {
		if !r.Match.matches(w) {
			continue
		}
		in.dupSeen[i]++
		if in.fire(r.Prob, r.Nth, in.dupSeen[i]) {
			act.Duplicate = true
		}
	}
	return act
}

// ChargeExtra implements am.FaultInjector.
func (in *Injector) ChargeExtra(proc int, from, d sim.Time) sim.Time {
	var extra sim.Time
	for i, r := range in.plan.ProcDelays {
		if r.Proc == proc && !in.procFired[i] && from+d >= r.At {
			in.procFired[i] = true
			extra = addSat(extra, r.Extra)
		}
	}
	return extra
}

// addSat is a+b for non-negative durations, saturating at the largest
// one rather than wrapping negative; the machine fails a run whose
// clock a saturated delay would carry past int64 (am.ErrFaultOverflow).
func addSat(a, b sim.Time) sim.Time {
	if b > math.MaxInt64-a {
		return math.MaxInt64
	}
	return a + b
}
