package splitc

import (
	"testing"

	"repro/internal/logp"
	"repro/internal/sim"
)

func nowModel() Model { return ModelOf(logp.NOW()) }

func TestCostsDegenerateCases(t *testing.T) {
	m := nowModel()
	for _, alg := range BarrierAlgorithms() {
		if c, err := BarrierCost(alg, 1, m); err != nil || c != 0 {
			t.Errorf("BarrierCost(%s, 1) = %v, %v; want 0, nil", alg, c, err)
		}
		if _, err := BarrierCost(alg, 0, m); err == nil {
			t.Errorf("BarrierCost(%s, 0): expected error", alg)
		}
	}
	for _, alg := range BroadcastAlgorithms() {
		if c, err := BroadcastCost(alg, 1, 8, m); err != nil || c != 0 {
			t.Errorf("BroadcastCost(%s, 1) = %v, %v; want 0, nil", alg, c, err)
		}
	}
	for _, alg := range AllReduceAlgorithms() {
		if c, err := AllReduceCost(alg, 1, 8, m); err != nil || c != 0 {
			t.Errorf("AllReduceCost(%s, 1) = %v, %v; want 0, nil", alg, c, err)
		}
	}
	if _, err := BarrierCost("bogus", 4, m); err == nil {
		t.Error("BarrierCost(bogus): expected error")
	}
	if _, err := BroadcastCost("bogus", 4, 8, m); err == nil {
		t.Error("BroadcastCost(bogus): expected error")
	}
	if _, err := AllReduceCost("bogus", 4, 8, m); err == nil {
		t.Error("AllReduceCost(bogus): expected error")
	}
}

// TestCostsMonotoneInP pins that every model grows (weakly) with the
// processor count — a basic sanity property of collective schedules.
func TestCostsMonotoneInP(t *testing.T) {
	m := nowModel()
	check := func(name string, cost func(p int) sim.Time) {
		prev := cost(2)
		for p := 3; p <= 64; p++ {
			c := cost(p)
			if c < prev {
				t.Errorf("%s: cost(%d)=%v < cost(%d)=%v", name, p, c, p-1, prev)
			}
			prev = c
		}
	}
	for _, alg := range BarrierAlgorithms() {
		alg := alg
		check("barrier/"+alg, func(p int) sim.Time { c, _ := BarrierCost(alg, p, m); return c })
	}
	for _, alg := range BroadcastAlgorithms() {
		alg := alg
		check("bcast/"+alg, func(p int) sim.Time { c, _ := BroadcastCost(alg, p, 8, m); return c })
	}
	// The recursive-doubling model is not monotone across pof2 boundaries
	// (the fold/unfold surcharge drops when p reaches a power of two), so
	// only the other all-reduce shapes are checked pointwise.
	for _, alg := range []string{"tree", "flat"} {
		alg := alg
		check("ar/"+alg, func(p int) sim.Time { c, _ := AllReduceCost(alg, p, 8, m); return c })
	}
}

// TestDisseminationClosedForm pins the dissemination model to its exact
// closed form: rounds × one full hop.
func TestDisseminationClosedForm(t *testing.T) {
	m := nowModel()
	for _, p := range []int{2, 3, 8, 17, 32} {
		c, err := BarrierCost("dissemination", p, m)
		if err != nil {
			t.Fatal(err)
		}
		want := sim.Time(logRounds(p)) * (m.OSend + m.Latency + m.ORecv)
		if c != want {
			t.Errorf("p=%d: dissemination cost %v, want %v", p, c, want)
		}
	}
}

// TestLargePayloadAddsG pins the per-byte G term for payloads beyond one
// word.
func TestLargePayloadAddsG(t *testing.T) {
	m := nowModel()
	small, _ := BroadcastCost("chain", 4, 8, m)
	big, _ := BroadcastCost("chain", 4, 4096, m)
	if big <= small {
		t.Errorf("4KB chain broadcast (%v) not costlier than 8B (%v)", big, small)
	}
}

// TestSelectReturnsRegisteredNames pins that Select always lands on a
// registered algorithm, over a grid of machines and processor counts.
func TestSelectReturnsRegisteredNames(t *testing.T) {
	deltas := []logp.Params{logp.NOW()}
	for _, do := range []sim.Time{10 * sim.Microsecond, 50 * sim.Microsecond, 100 * sim.Microsecond} {
		pm := logp.NOW()
		pm.DeltaO = do
		deltas = append(deltas, pm)
	}
	for _, dl := range []sim.Time{50 * sim.Microsecond, 200 * sim.Microsecond} {
		pm := logp.NOW()
		pm.DeltaL = dl
		deltas = append(deltas, pm)
	}
	for _, pm := range deltas {
		for _, p := range []int{2, 3, 4, 8, 16, 32, 100} {
			s := Select(p, 8, pm)
			if _, err := s.lookup(); err != nil {
				t.Errorf("Select(%d) returned unregistered name: %v", p, err)
			}
		}
	}
}

// TestSelectPrefersRecDouble pins one analytic crossover the models must
// exhibit: recursive doubling halves the tree's depth, so at any
// power-of-two P ≥ 4 on the baseline machine the tuner must leave the
// default tree all-reduce.
func TestSelectPrefersRecDouble(t *testing.T) {
	for _, p := range []int{4, 8, 16, 32} {
		s := Select(p, 8, logp.NOW())
		if s.AllReduce != "recdouble" {
			t.Errorf("P=%d: tuner picked all-reduce %q, want %q", p, s.AllReduce, "recdouble")
		}
	}
}

// TestTiesGoToDefault pins the tie rule: on a degenerate free machine
// every model is 0, and the tuner must keep the default (first-listed)
// algorithms.
func TestTiesGoToDefault(t *testing.T) {
	free := Model{}
	for _, p := range []int{2, 8} {
		if b := cheapest(barriers(), p, 8, free); b != "dissemination" {
			t.Errorf("P=%d: tie broke to %q, want default %q", p, b, "dissemination")
		}
	}
}
