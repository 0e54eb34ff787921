package am

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/logp"
	"repro/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Error("zero histogram not empty")
	}
	h.Add(100)
	h.Add(300)
	h.Add(0)
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Mean() != 133 {
		t.Errorf("mean = %v", h.Mean())
	}
	if h.Max() != 300 {
		t.Errorf("max = %v", h.Max())
	}
	if h.String() == "" {
		t.Error("empty String()")
	}
}

func TestHistogramFractionBelow(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Add(10) // bucket [8,16)
	}
	for i := 0; i < 10; i++ {
		h.Add(10000) // bucket [8192,16384)
	}
	if got := h.FractionBelow(16); got != 0.5 {
		t.Errorf("FractionBelow(16) = %v, want 0.5", got)
	}
	if got := h.FractionBelow(1 << 20); got != 1.0 {
		t.Errorf("FractionBelow(1M) = %v, want 1", got)
	}
	if got := h.FractionBelow(4); got != 0 {
		t.Errorf("FractionBelow(4) = %v, want 0", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Add(10)
	}
	h.Add(1 << 30)
	if q := h.Quantile(0.5); q > 16 {
		t.Errorf("median bound = %v, want <= 16", q)
	}
	if q := h.Quantile(0.999); q < 1<<30 {
		t.Errorf("p99.9 bound = %v, want >= 2^30", q)
	}
}

// Property: FractionBelow is monotone in its threshold and bounded [0,1].
func TestHistogramMonotoneProperty(t *testing.T) {
	f := func(samples []uint32, t1, t2 uint32) bool {
		var h Histogram
		for _, s := range samples {
			h.Add(sim.Time(s))
		}
		lo, hi := sim.Time(t1), sim.Time(t2)
		if lo > hi {
			lo, hi = hi, lo
		}
		a, b := h.FractionBelow(lo), h.FractionBelow(hi)
		return a >= 0 && b <= 1 && a <= b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBurstinessInstrumentation(t *testing.T) {
	// A back-to-back burst followed by a long pause must be mostly
	// "bursty" under a small threshold.
	eng := sim.New(sim.Config{Procs: 2})
	m := MustMachine(eng, logp.NOW())
	seen := 0
	const n = 20
	err := eng.RunEach([]func(*sim.Proc){
		func(p *sim.Proc) {
			ep := m.Endpoint(0)
			for i := 0; i < n; i++ {
				ep.Request(1, ClassWrite, func(*Endpoint, *Token, Args) { seen++ }, Args{})
			}
			ep.Compute(sim.FromMicros(5000))
			ep.Request(1, ClassWrite, func(*Endpoint, *Token, Args) { seen++ }, Args{})
			ep.WaitUntil(func() bool { return seen == n+1 }, "drain")
		},
		func(p *sim.Proc) {
			m.Endpoint(1).WaitUntil(func() bool { return seen == n+1 }, "sink")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	frac := s.BurstFraction(2 * logp.NOW().EffGap())
	// 19 of 20 recorded intervals are back-to-back; one is the 5ms pause.
	if frac < 0.9 {
		t.Errorf("burst fraction = %v, want > 0.9", frac)
	}
	if s.MeanSendInterval() < sim.FromMicros(100) {
		t.Errorf("mean interval = %v should be dominated by the pause", s.MeanSendInterval())
	}
}

func TestCPUFactorScalesComputeOnly(t *testing.T) {
	elapsed := func(factor float64) sim.Time {
		eng := sim.New(sim.Config{Procs: 2})
		m := MustMachine(eng, logp.NOW())
		m.SetCPUFactor(factor)
		done := false
		err := eng.RunEach([]func(*sim.Proc){
			func(p *sim.Proc) {
				ep := m.Endpoint(0)
				ep.Compute(sim.FromMicros(1000))
				ep.Request(1, ClassWrite, func(*Endpoint, *Token, Args) { done = true }, Args{})
				ep.WaitUntil(func() bool { return done }, "drain")
			},
			func(p *sim.Proc) {
				m.Endpoint(1).WaitUntil(func() bool { return done }, "sink")
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng.MaxClock()
	}
	base, fast := elapsed(1), elapsed(2)
	// 1000µs of compute halves; the ~11µs of communication does not.
	saved := base - fast
	if saved < sim.FromMicros(495) || saved > sim.FromMicros(505) {
		t.Errorf("2x CPU saved %v, want ≈500µs (compute only)", saved)
	}
	if m := MustMachine(sim.New(sim.Config{Procs: 1}), logp.NOW()); m.CPUFactor() != 1 {
		t.Errorf("default CPU factor = %v", m.CPUFactor())
	}
}

// TestComputeOverflowAcrossCharges: at a factor of 2^-20 (apps'
// MinCPUSpeedup, so no single charge an app makes overflows) a 2^42 ns
// charge scales to 2^62 and fits, and a second one would pass the int64
// clock: the run fails with the typed ErrComputeOverflow, not a wrapped
// negative time.
func TestComputeOverflowAcrossCharges(t *testing.T) {
	eng := sim.New(sim.Config{Procs: 1})
	m := MustMachine(eng, logp.NOW())
	m.SetCPUFactor(1.0 / (1 << 20))
	charges := 0
	err := eng.Run(func(p *sim.Proc) {
		for range 2 {
			m.Endpoint(0).Compute(1 << 42)
			charges++
		}
	})
	if !errors.Is(err, ErrComputeOverflow) || charges != 1 {
		t.Errorf("err = %v after %d charges, want ErrComputeOverflow on the second", err, charges)
	}
}

func TestSetCPUFactorRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for factor 0")
		}
	}()
	MustMachine(sim.New(sim.Config{Procs: 1}), logp.NOW()).SetCPUFactor(0)
}
