package suite

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/scalekern"
	"repro/internal/logp"
	"repro/internal/sim"
)

func tinyCfg(procs int) apps.Config {
	return apps.Config{
		Procs:  procs,
		Scale:  0.0004,
		Params: logp.NOW(),
		Seed:   31,
		Verify: true,
	}
}

func TestSuiteContents(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Fatalf("suite has %d apps, want 10", len(all))
	}
	want := []string{"radix", "em3d-write", "em3d-read", "sample", "barnes",
		"pray", "connect", "murphi", "nowsort", "radb"}
	for i, name := range want {
		if all[i].Name() != name {
			t.Errorf("suite[%d] = %s, want %s", i, all[i].Name(), name)
		}
		if all[i].PaperName() == "" || all[i].Description() == "" {
			t.Errorf("%s: missing metadata", name)
		}
	}
	// ByName is the one lookup every runner uses: the paper apps, then
	// the kernels; anything else is refused with both name lists.
	for _, name := range append(Names(), scalekern.Names()...) {
		if a, err := ByName(name); err != nil || a.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, a, err)
		}
	}
	for _, name := range []string{"", "nope", "scale-radix-blk", "Radix"} {
		if _, err := ByName(name); err == nil || !strings.Contains(err.Error(), "have [") {
			t.Errorf("ByName(%q) error %v, want one listing the names", name, err)
		}
	}
}

// TestEveryAppVerifiesAtOddP runs the entire suite with verification at a
// non-power-of-two processor count — the configuration most likely to
// expose collective and partitioning bugs.
func TestEveryAppVerifiesAtOddP(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			res, err := a.Run(tinyCfg(5))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Error("not verified")
			}
			if res.Elapsed <= 0 {
				t.Error("no virtual time elapsed")
			}
			if res.Summary.AvgMsgsPerProc <= 0 {
				t.Error("no communication recorded")
			}
		})
	}
}

// TestEveryAppSingleProcessor checks the degenerate P=1 case end-to-end.
func TestEveryAppSingleProcessor(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			res, err := a.Run(tinyCfg(1))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Error("not verified")
			}
		})
	}
}

// TestEveryAppDeterministic runs each app twice and demands identical
// virtual timelines and message counts.
func TestEveryAppDeterministic(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			cfg := tinyCfg(4)
			cfg.Verify = false
			r1, err := a.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := a.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Elapsed != r2.Elapsed {
				t.Errorf("elapsed %v vs %v", r1.Elapsed, r2.Elapsed)
			}
			if r1.Stats.TotalSent() != r2.Stats.TotalSent() {
				t.Errorf("messages %d vs %d", r1.Stats.TotalSent(), r2.Stats.TotalSent())
			}
		})
	}
}

// TestEveryAppSurvivesDegradedMachine runs each app (unverified, small)
// under simultaneously degraded parameters — all four knobs at once, a
// configuration no single-parameter sweep exercises.
func TestEveryAppSurvivesDegradedMachine(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			cfg := tinyCfg(4)
			cfg.Verify = false
			cfg.Params.DeltaO = sim.FromMicros(10)
			cfg.Params.DeltaG = sim.FromMicros(10)
			cfg.Params.DeltaL = sim.FromMicros(25)
			cfg.Params.BulkBandwidthMBs = 5
			base, err := a.Run(tinyCfg(4))
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed < base.Elapsed {
				t.Errorf("degraded machine ran faster: %v vs %v", res.Elapsed, base.Elapsed)
			}
		})
	}
}

// TestCPUSpeedupNeverHurts doubles compute speed for every app.
func TestCPUSpeedupNeverHurts(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			cfg := tinyCfg(4)
			cfg.Verify = false
			base, err := a.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.CPUSpeedup = 2
			fast, err := a.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fast.Elapsed > base.Elapsed {
				t.Errorf("2x CPU slowed %s: %v -> %v", a.Name(), base.Elapsed, fast.Elapsed)
			}
		})
	}
}
