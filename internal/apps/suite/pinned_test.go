package suite

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/scalekern"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/splitc"
	"repro/internal/trace"
)

// TestAppTimelinesPinned holds every paper app's virtual makespan,
// message count and event count at tinyCfg scale to the values recorded
// at commit fb402e7, where all ten were still blocking bodies, with
// Verify checking each answer against its serial reference. The digest
// column is trace.Digest over every message sent and handled, recorded
// at commit 0f1aaad; a run with no messages reads the FNV offset basis.
// A changed compute charge, a reordered primitive or a lost message
// moves a row, and so do two sends swapped at the same makespan. The
// apps written as Tasks must also make no coroutine switch.
func TestAppTimelinesPinned(t *testing.T) {
	type in struct {
		app   string
		procs int
	}
	type out struct {
		elapsedNs, sent, events int64
		digest                  uint64
	}
	// The paper apps written as splitc.Task state machines; the rest are
	// blocking bodies on the coroutine shell.
	isTask := map[string]bool{"radix": true, "em3d-write": true, "em3d-read": true, "sample": true, "barnes": true}
	for _, tc := range []struct {
		in  in
		out out
	}{
		{in{"radix", 1}, out{1914880, 0, 0, 0xcbf29ce484222325}},
		{in{"radix", 5}, out{15766679, 11496, 22984, 0xfeb65dcb3e35e48f}},
		{in{"radix", 32}, out{6328419, 18190, 36318, 0xc91ede2cc8e8b982}},
		{in{"em3d-write", 1}, out{30720000, 0, 0, 0xcbf29ce484222325}},
		{in{"em3d-write", 5}, out{168137800, 69845, 139690, 0x2115d4837b030834}},
		{in{"em3d-write", 32}, out{164206200, 464280, 928560, 0x73819a08d1c82fd1}},
		{in{"em3d-read", 1}, out{30720000, 0, 0, 0xcbf29ce484222325}},
		{in{"em3d-read", 5}, out{380797000, 133645, 136690, 0x569f507bb19f400f}},
		{in{"em3d-read", 32}, out{440254800, 864080, 896560, 0x83aa0680fa9bdd68}},
		{in{"sample", 1}, out{5504900, 0, 0, 0xcbf29ce484222325}},
		{in{"sample", 5}, out{15983080, 10567, 21126, 0x785867e28dd67d6c}},
		{in{"sample", 32}, out{39968350, 22279, 44496, 0xf495a822e0076b0e}},
		{in{"barnes", 1}, out{190491600, 0, 0, 0xcbf29ce484222325}},
		{in{"barnes", 5}, out{246152496, 56378, 58046, 0xe7f4362eec20f744}},
		{in{"barnes", 32}, out{165248326, 238306, 246652, 0xde3ec168b8fb51e7}},
		{in{"pray", 1}, out{7093750, 0, 0, 0xcbf29ce484222325}},
		{in{"pray", 5}, out{8860854, 1485, 1538, 0x9fd926e11e716475}},
		{in{"pray", 32}, out{6214066, 4010, 4552, 0x3a5fa9d7a6073939}},
		{in{"connect", 1}, out{7067500, 0, 0, 0xcbf29ce484222325}},
		{in{"connect", 5}, out{1750750, 108, 168, 0x8003e923fb3dfc6e}},
		{in{"connect", 32}, out{860850, 1056, 1696, 0x20ae035817b75cf9}},
		{in{"murphi", 1}, out{330305600, 0, 0, 0xcbf29ce484222325}},
		{in{"murphi", 5}, out{136987341, 1715, 3430, 0xdb3a882f6bcd013e}},
		{in{"murphi", 32}, out{35995195, 15070, 30140, 0x889b364eee03b19b}},
		{in{"nowsort", 1}, out{542464922, 0, 11, 0xcbf29ce484222325}},
		{in{"nowsort", 5}, out{142662952, 352, 719, 0x7b1fdc6f576f2cfe}},
		{in{"nowsort", 32}, out{24229498, 1818, 3732, 0x821908da325a70a8}},
		{in{"radb", 1}, out{2490880, 0, 0, 0xcbf29ce484222325}},
		{in{"radb", 5}, out{2079204, 254, 500, 0xf2b1afb44707c05c}},
		{in{"radb", 32}, out{4990843, 4076, 8090, 0x943c257295974194}},
	} {
		a, err := ByName(tc.in.app)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tinyCfg(tc.in.procs)
		d := &trace.Digest{}
		cfg.Hooks = d
		res, err := a.Run(cfg)
		if err != nil {
			t.Errorf("%v: %v", tc.in, err)
			continue
		}
		got := out{int64(res.Elapsed), res.Stats.TotalSent(), res.Sched.EventsRun, d.Sum64()}
		if got != tc.out {
			t.Errorf("%v: (elapsed ns, sent, events, digest) = %v, want %v", tc.in, got, tc.out)
		}
		if !res.Verified {
			t.Errorf("%v: not verified", tc.in)
		}
		if isTask[tc.in.app] && res.Sched.Switches != 0 {
			t.Errorf("%v: a Task made %d coroutine switches", tc.in, res.Sched.Switches)
		}
	}
}

// TestVariantTimelinesPinned holds the paths TestAppTimelinesPinned does
// not reach at the values recorded at commit 1779659: the reliability
// layer's retransmission, dedup and ack events on a wire that drops and
// duplicates, and the tree and flat barriers, on one Task app and one
// blocking body. Besides the makespan, message count, event count and
// trace digest, the reliable row pins the retransmissions and the
// duplicates discarded, so a timeout or an ack that moves shows even
// where it would not move the makespan.
func TestVariantTimelinesPinned(t *testing.T) {
	type out struct {
		elapsedNs, sent, events int64
		digest                  uint64
		retransmits, dups       int64
	}
	lossy := &fault.Plan{
		Drops: []fault.DropRule{{Match: fault.Any(), Prob: 0.02}},
		Dups:  []fault.DupRule{{Match: fault.Any(), Prob: 0.02}},
	}
	for _, tc := range []struct {
		name  string
		app   string
		procs int
		set   func(*apps.Config)
		out   out
	}{
		{"reliable lossy wire", "radix", 5, func(c *apps.Config) {
			c.FaultPlan, c.Reliability = lossy, am.Reliability{Enabled: true}
		}, out{23038464, 11496, 47121, 0xcf35f6fe99ec7402, 385, 380}},
		{"tree barrier", "radix", 32, func(c *apps.Config) {
			c.Collectives = splitc.Collectives{Barrier: "tree"}
		}, out{6729819, 17308, 34554, 0xf275b2dc665a6679, 0, 0}},
		{"flat barrier", "connect", 32, func(c *apps.Config) {
			c.Collectives = splitc.Collectives{Barrier: "flat"}
		}, out{1435300, 664, 912, 0xf2efd9b8562110d9, 0, 0}},
	} {
		a, err := ByName(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tinyCfg(tc.procs)
		tc.set(&cfg)
		d := &trace.Digest{}
		cfg.Hooks = d
		res, err := a.Run(cfg)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		got := out{int64(res.Elapsed), res.Stats.TotalSent(), res.Sched.EventsRun, d.Sum64(),
			res.Stats.Retransmits, res.Stats.DupsDiscarded}
		if got != tc.out {
			t.Errorf("%s: (elapsed ns, sent, events, digest, retransmits, dups discarded) = %#v, want %#v", tc.name, got, tc.out)
		}
		if !res.Verified {
			t.Errorf("%s: not verified", tc.name)
		}
	}
}

// TestComputeOverflowIsTypedError runs every app with a CPU factor so
// small that its first compute charge would overflow the virtual clock:
// Config.Validate refuses it (below apps.MinCPUSpeedup) before anything
// is built, so the run is an error naming the factor, not a panic and a
// stack dump. Overflow that builds up across charges is am's
// ErrComputeOverflow (am.TestComputeOverflowAcrossCharges).
func TestComputeOverflowIsTypedError(t *testing.T) {
	for _, a := range All() {
		_, err := a.Run(apps.Config{Procs: 4, Scale: 1e-4, Seed: 1, CPUSpeedup: 1e-300})
		if err == nil || !strings.Contains(err.Error(), "CPU speedup") {
			t.Errorf("%s: err = %v, want a refusal naming the CPU speedup", a.Name(), err)
			continue
		}
		if strings.Contains(err.Error(), "goroutine ") {
			t.Errorf("%s: error carries a stack dump: %v", a.Name(), err)
		}
	}
}

// TestBadConfigIsAnError runs every paper app and every kernel on no
// processors and on a negative input: Config.Validate refuses both before
// anything is sized, so each run returns an error naming the field
// instead of panicking in the engine or running a minimal input.
func TestBadConfigIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    apps.Config
		errHas string
	}{
		{"procs -1", apps.Config{Procs: -1, Scale: 1e-4, Seed: 1}, "procs"},
		{"scale -1", apps.Config{Procs: 4, Scale: -1, Seed: 1}, "scale"},
		{"stall on a missing processor", apps.Config{Procs: 4, Scale: 1e-4, Seed: 1,
			FaultPlan: &fault.Plan{ProcDelays: []fault.ProcDelay{{Proc: 4, Extra: sim.Microsecond}}}},
			"ProcDelays[0].Proc"},
	} {
		for _, a := range append(All(), scalekern.All()...) {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s at %s: panic: %v", a.Name(), tc.name, r)
					}
				}()
				if _, err := a.Run(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.errHas) {
					t.Errorf("%s at %s: err = %v, want a refusal naming %s", a.Name(), tc.name, err, tc.errHas)
				}
			}()
		}
	}
}

// TestScaleCeilingIsAnError runs every app with a scale no input fits:
// Config.Validate refuses it before the app sizes anything, so the run
// is an error naming the scale, not a silently minimal input (what
// ScaleInt used to turn an overflowed product into) and not a panic.
func TestScaleCeilingIsAnError(t *testing.T) {
	for _, scale := range []float64{2 * apps.MaxScale, 1e300, math.NaN()} {
		for _, a := range All() {
			_, err := a.Run(apps.Config{Procs: 4, Scale: scale, Seed: 1})
			if err == nil || !strings.Contains(err.Error(), "scale") {
				t.Errorf("%s at scale %g: err = %v, want a refusal naming the scale", a.Name(), scale, err)
			}
		}
	}
	if err := (apps.Config{Scale: apps.MaxScale}).Validate(); err != nil {
		t.Errorf("scale at the ceiling refused: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("ScaleInt(16M, 1e300) returned instead of panicking")
		}
	}()
	apps.ScaleInt(16_000_000, 1e300, 64)
}

// TestTaskLivelockIsLivelockedPoint pins the exit Barnes' high-Δo cells
// depend on, for every app written as a Task: a run past its time limit
// fails with sim.ErrTimeLimit, core.Measure reports the point as
// livelocked, and the aborted runs leave no goroutine behind.
func TestTaskLivelockIsLivelockedPoint(t *testing.T) {
	for _, name := range []string{"radix", "em3d-write", "em3d-read", "sample", "barnes"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tinyCfg(5)
		cfg.Verify = false
		base, err := a.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		limited := cfg
		limited.TimeLimit = base.Elapsed / 2
		if _, err := a.Run(limited); !errors.Is(err, sim.ErrTimeLimit) {
			t.Errorf("%s: limit at half the makespan: err = %v, want sim.ErrTimeLimit", name, err)
		}
		// Measure bounds the run at LivelockFactor × the baseline it is
		// given, so this baseline puts the bound at half the makespan.
		pt, _, err := core.Measure(a, cfg, core.KnobO, 0, base.Elapsed/(2*core.LivelockFactor))
		if err != nil {
			t.Fatal(err)
		}
		if !pt.Livelocked {
			t.Errorf("%s: point not livelocked: %+v", name, pt)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines after the aborted runs, %d before", name, after, before)
		}
	}
}

// TestRadixPhasesPinned holds Radix's phase shares — the attribution
// §5.1's serialization argument and the ext-phases table rest on — at
// tinyCfg scale to the values the blocking body reported at commit
// af81a61. A phase label entered at another point of the program, or a
// phase left open past the terminal barrier, moves a row.
func TestRadixPhasesPinned(t *testing.T) {
	for _, tc := range []struct {
		procs                    int
		rank, histogram, distrib float64
	}{
		{5, 0.008951869017371522, 0.11668005950195437, 0.860159522560204},
		{32, 0.0035132999963749132, 0.3705053464840411, 0.5542780945026596},
	} {
		a, err := ByName("radix")
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run(tinyCfg(tc.procs))
		if err != nil {
			t.Fatalf("P=%d: %v", tc.procs, err)
		}
		for _, ph := range []struct {
			name string
			want float64
		}{
			{"phase:local-rank", tc.rank},
			{"phase:histogram", tc.histogram},
			{"phase:distribution", tc.distrib},
		} {
			if got := res.Extra[ph.name]; got != ph.want {
				t.Errorf("P=%d: %s = %v, want %v", tc.procs, ph.name, got, ph.want)
			}
		}
	}
}
