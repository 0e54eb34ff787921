package core

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/radix"
	"repro/internal/logp"
	"repro/internal/sim"
)

func TestKnobApplyIndependence(t *testing.T) {
	base := logp.NOW()
	for _, k := range []Knob{KnobO, KnobG, KnobL} {
		p := k.Apply(base, 50)
		changed := 0
		if p.DeltaO != base.DeltaO {
			changed++
		}
		if p.DeltaG != base.DeltaG {
			changed++
		}
		if p.DeltaL != base.DeltaL {
			changed++
		}
		if p.BulkBandwidthMBs != base.BulkBandwidthMBs {
			changed++
		}
		if changed != 1 {
			t.Errorf("%v moved %d parameters, want exactly 1", k, changed)
		}
	}
	p := KnobBW.Apply(base, 10)
	if p.BulkBandwidthMBs != 10 || p.DeltaO != 0 || p.DeltaG != 0 || p.DeltaL != 0 {
		t.Errorf("KnobBW moved the wrong fields: %+v", p)
	}
}

func TestKnobStrings(t *testing.T) {
	names := map[Knob]string{KnobO: "overhead", KnobG: "gap", KnobL: "latency", KnobBW: "bulk-bandwidth"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %s, want %s", k, k.String(), want)
		}
	}
	if Knob(99).String() == "" {
		t.Error("unknown knob should still render")
	}
}

func TestKnobNoneApplyUntouched(t *testing.T) {
	base := logp.NOW()
	if got := KnobNone.Apply(base, 50); got != base {
		t.Errorf("KnobNone.Apply changed the machine: %+v", got)
	}
	if KnobNone.String() != "baseline" {
		t.Errorf("KnobNone.String() = %s", KnobNone.String())
	}
}

func TestMeasureReturnsResult(t *testing.T) {
	cfg := apps.Config{Procs: 4, Scale: 0.0003, Seed: 1}
	base, err := radix.New().Run(cfg.Norm())
	if err != nil {
		t.Fatal(err)
	}
	pt, res, err := Measure(radix.New(), cfg, KnobO, 10, base.Elapsed)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Slowdown <= 1 {
		t.Errorf("Δo=10 slowdown = %v, want > 1", pt.Slowdown)
	}
	if res.Elapsed != pt.Elapsed {
		t.Errorf("Result.Elapsed %v != Point.Elapsed %v", res.Elapsed, pt.Elapsed)
	}
	if res.Stats == nil {
		t.Error("Measure dropped the swept run's Stats")
	}
}

func TestMeasureLivelockDetection(t *testing.T) {
	// A baseline of ~1ns with a 300x factor bounds any real run, so the
	// time limit must trip and be reported as livelock, not error.
	pt, _, err := Measure(radix.New(), apps.Config{Procs: 4, Scale: 0.0003, Seed: 1},
		KnobO, 0, sim.Time(1))
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Livelocked {
		t.Error("expected livelock with a 300ns budget")
	}
}
