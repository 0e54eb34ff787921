package scalekern

import (
	"strings"
	"testing"

	"repro/internal/apps"
)

// TestKernelTimelinesPinned holds each kernel's virtual makespan and
// message count at small P to the values its Task and its (since
// deleted) blocking twin agreed on at commit cec5b90, with Verify
// checking the answers against the serial reference. A changed compute
// charge, a reordered primitive or a lost message moves a row.
func TestKernelTimelinesPinned(t *testing.T) {
	for _, tc := range []struct {
		kernel    string
		procs     int
		elapsedNs int64
		sent      int64
	}{
		{"scale-radix", 1, 14080, 0},
		{"scale-radix", 2, 362480, 76},
		{"scale-radix", 32, 1180480, 3225},
		{"scale-radix", 64, 1269880, 6970},
		{"scale-em3d", 1, 10240, 0},
		{"scale-em3d", 2, 409788, 92},
		{"scale-em3d", 32, 841788, 2752},
		{"scale-em3d", 64, 949788, 6144},
		{"scale-pray", 1, 4800, 0},
		{"scale-pray", 2, 225800, 38},
		{"scale-pray", 32, 445800, 894},
		{"scale-pray", 64, 503600, 1918},
	} {
		a, err := ByName(tc.kernel)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run(apps.Config{Procs: tc.procs, Seed: 7, Verify: true})
		if err != nil {
			t.Fatalf("%s P=%d: %v", tc.kernel, tc.procs, err)
		}
		if got := int64(res.Elapsed); got != tc.elapsedNs {
			t.Errorf("%s P=%d: elapsed %d ns, want %d", tc.kernel, tc.procs, got, tc.elapsedNs)
		}
		if got := res.Stats.TotalSent(); got != tc.sent {
			t.Errorf("%s P=%d: sent %d messages, want %d", tc.kernel, tc.procs, got, tc.sent)
		}
	}
}

// TestKernelsDeterministic pins that two identical runs
// produce the same virtual timeline.
func TestKernelsDeterministic(t *testing.T) {
	for _, a := range All() {
		var elapsed [2]float64
		var sent [2]int64
		for i := range elapsed {
			res, err := a.Run(apps.Config{Procs: 16, Seed: 3, Verify: true})
			if err != nil {
				t.Fatalf("%s: %v", a.Name(), err)
			}
			elapsed[i] = res.Elapsed.Seconds()
			sent[i] = res.Stats.TotalSent()
		}
		if elapsed[0] != elapsed[1] || sent[0] != sent[1] {
			t.Errorf("%s: nondeterministic runs: %v/%d vs %v/%d", a.Name(), elapsed[0], sent[0], elapsed[1], sent[1])
		}
	}
}

// TestByName pins the registry: the three kernels by their names, and
// nothing under the retired -blk spelling.
func TestByName(t *testing.T) {
	for _, name := range []string{"scale-radix", "scale-em3d", "scale-pray"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, a.Name())
		}
	}
	for _, name := range []string{"nope", "scale-radix-blk"} {
		if _, err := ByName(name); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
			t.Errorf("ByName(%q) = %v, want an unknown-kernel error", name, err)
		}
	}
}
