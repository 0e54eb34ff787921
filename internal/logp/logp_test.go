package logp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestNOWBaseline(t *testing.T) {
	p := NOW()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.O().Micros(); got != 2.9 {
		t.Errorf("o = %v µs, want 2.9", got)
	}
	if got := p.EffGap().Micros(); got != 5.8 {
		t.Errorf("g = %v µs, want 5.8", got)
	}
	if got := p.EffLatency().Micros(); got != 5.0 {
		t.Errorf("L = %v µs, want 5.0", got)
	}
	if got := p.BulkMBs(); math.Abs(got-38) > 0.01 {
		t.Errorf("1/G = %v MB/s, want 38", got)
	}
}

func TestComparisonPresets(t *testing.T) {
	for name, p := range map[string]Params{"paragon": Paragon(), "meiko": Meiko(), "lan": LAN()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if got := Paragon().O().Micros(); got != 1.8 {
		t.Errorf("paragon o = %v, want 1.8", got)
	}
	if got := Meiko().O().Micros(); got != 1.7 {
		t.Errorf("meiko o = %v, want 1.7", got)
	}
	if got := LAN().O().Micros(); got != 102.9 {
		t.Errorf("lan o = %v, want 102.9", got)
	}
}

func TestDeltas(t *testing.T) {
	p := NOW()
	p.DeltaO = sim.FromMicros(10)
	if got := p.O().Micros(); got != 12.9 {
		t.Errorf("o with Δo=10 = %v, want 12.9", got)
	}
	if got := p.EffOSend().Micros(); got != 11.8 {
		t.Errorf("o_send = %v, want 11.8", got)
	}
	if got := p.EffORecv().Micros(); got != 14.0 {
		t.Errorf("o_recv = %v, want 14.0", got)
	}
	p.DeltaG = sim.FromMicros(4.2)
	if got := p.EffGap().Micros(); got != 10.0 {
		t.Errorf("g = %v, want 10.0", got)
	}
	p.DeltaL = sim.FromMicros(25)
	if got := p.EffLatency().Micros(); got != 30.0 {
		t.Errorf("L = %v, want 30.0", got)
	}
}

func TestBulkBandwidthCap(t *testing.T) {
	p := NOW()
	p.BulkBandwidthMBs = 10
	if got := p.BulkMBs(); math.Abs(got-10) > 0.01 {
		t.Errorf("capped bandwidth = %v, want 10", got)
	}
	// A cap above the machine's own rate must not speed the machine up.
	p.BulkBandwidthMBs = 1000
	if got := p.BulkMBs(); math.Abs(got-38) > 0.01 {
		t.Errorf("high cap changed bandwidth to %v, want 38", got)
	}
}

func TestBulkTime(t *testing.T) {
	p := NOW()
	// 38 MB/s → 4096 bytes ≈ 107.8 µs.
	got := p.BulkTime(4096).Micros()
	if math.Abs(got-107.8) > 0.2 {
		t.Errorf("BulkTime(4096) = %v µs, want ≈107.8", got)
	}
	if p.BulkTime(0) != 0 {
		t.Errorf("BulkTime(0) = %v, want 0", p.BulkTime(0))
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.OSend = -1 },
		func(p *Params) { p.DeltaO = -1 },
		func(p *Params) { p.DeltaG = -1 },
		func(p *Params) { p.DeltaL = -1 },
		func(p *Params) { p.GPerByte = -1 },
		func(p *Params) { p.BulkBandwidthMBs = -1 },
		func(p *Params) { p.BulkBandwidthMBs = math.NaN() },
		func(p *Params) { p.GPerByte = math.NaN() },
		func(p *Params) { p.Window = 0 },
		func(p *Params) { p.FragmentSize = 0 },
	}
	for i, mutate := range bad {
		p := NOW()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid params", i)
		}
	}
}

func TestStringIncludesAllParams(t *testing.T) {
	s := NOW().String()
	for _, want := range []string{"o=", "g=", "L=", "G=", "W="} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Property: effective parameters are monotone in their deltas.
func TestEffectiveMonotoneProperty(t *testing.T) {
	f := func(dO, dG, dL uint16, bw uint8) bool {
		base := NOW()
		p := base
		p.DeltaO = sim.Time(dO)
		p.DeltaG = sim.Time(dG)
		p.DeltaL = sim.Time(dL)
		if p.EffOSend() < base.EffOSend() || p.EffORecv() < base.EffORecv() {
			return false
		}
		if p.EffGap() < base.EffGap() || p.EffLatency() < base.EffLatency() {
			return false
		}
		// Bandwidth caps only ever slow bulk transfers down.
		q := base
		q.BulkBandwidthMBs = float64(bw) + 1
		return q.EffGPerByte() >= base.EffGPerByte()-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: BulkTime scales (approximately) linearly in the byte count.
func TestBulkTimeLinearProperty(t *testing.T) {
	f := func(nRaw uint16) bool {
		n := int(nRaw)
		p := NOW()
		t2 := p.BulkTime(2 * n)
		t1 := p.BulkTime(n)
		diff := t2 - 2*t1
		return diff >= -2 && diff <= 2 // rounding slack
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
