package run

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/splitc"
)

// goldenHashes pins the canonical Spec hash across releases: the hashes
// key the persistent on-disk result cache, so a change here is a cache
// invalidation and must come with a hashVersion bump (never a silent
// re-keying). If this test fails after you changed Spec or its
// encoding, bump hashVersion in hash.go and re-pin.
var goldenHashes = []struct {
	spec Spec
	want string
}{
	{
		Baseline("radix", 32, 1.0/256, 1, false),
		"3b526b96b9d8967e06f0e2a4eb204e6ef471a9a1669d69ffa3a817e0efc5cd00",
	},
	{
		Spec{App: "radix", Procs: 32, Scale: 1.0 / 256, Seed: 1, Knob: core.KnobO, Value: 25},
		"5a11c92b810e82a28f604783b8108477971a3636cd3f6d5073fa372f24450be6",
	},
	{
		Spec{App: "em3d-read", Procs: 8, Scale: 0.00048828125, Seed: 7, Knob: core.KnobG, Value: 24.2, Profile: true},
		"16cdabd6c5cfd09bcf6a3380730e6e9168aa7d14b159053eb3c1f80e319c2e81",
	},
	{
		Spec{App: "nowsort", Procs: 16, Scale: 1.0 / 256, Seed: 1, Knob: core.KnobNone,
			Fault: FaultSpec{DelayProc: 3, DelayAtFrac: 0.5, DelayUs: 1000}},
		"38bfbf056b9fabcb25843ec90d43563f392c7cb5c0d5afe175970266da8bb698",
	},
	{
		Spec{App: "sample", Procs: 64, Scale: 1.0 / 256, Seed: 2, Knob: core.KnobL, Value: 100,
			Coll: splitc.Collectives{Barrier: "flat", Broadcast: "chain", AllReduce: "recdouble"}},
		"95aa560ba9f34a511ae32d81cc8b61aff0f6323949a639e8632d726453b74317",
	},
}

func TestSpecHashGoldenVectors(t *testing.T) {
	for _, g := range goldenHashes {
		if got := g.spec.Hash(); got != g.want {
			t.Errorf("Hash(%v) = %s, want %s\ncanonical:\n%s", g.spec, got, g.want, g.spec.canonical())
		}
	}
}

// TestSpecHashNormalizes proves hashing and map-key equality agree: a
// spec and its normalized form address the same cache entry.
func TestSpecHashNormalizes(t *testing.T) {
	raw := Spec{App: "radix", Procs: 32, Scale: 1.0 / 256, Seed: 1,
		Knob: core.KnobO, Value: 25, Verify: true, CPUSpeedup: 1}
	if raw.Hash() != raw.norm().Hash() {
		t.Fatalf("hash of raw spec differs from its normalized form")
	}
	if raw.norm() == raw {
		t.Fatalf("test spec should not already be normalized")
	}
}

func TestSpecHashDistinguishesFields(t *testing.T) {
	base := Spec{App: "radix", Procs: 32, Scale: 1.0 / 256, Seed: 1, Knob: core.KnobO, Value: 25}
	variants := []Spec{
		{App: "sample", Procs: 32, Scale: 1.0 / 256, Seed: 1, Knob: core.KnobO, Value: 25},
		{App: "radix", Procs: 16, Scale: 1.0 / 256, Seed: 1, Knob: core.KnobO, Value: 25},
		{App: "radix", Procs: 32, Scale: 1.0 / 512, Seed: 1, Knob: core.KnobO, Value: 25},
		{App: "radix", Procs: 32, Scale: 1.0 / 256, Seed: 2, Knob: core.KnobO, Value: 25},
		{App: "radix", Procs: 32, Scale: 1.0 / 256, Seed: 1, Knob: core.KnobG, Value: 25},
		{App: "radix", Procs: 32, Scale: 1.0 / 256, Seed: 1, Knob: core.KnobO, Value: 26},
		{App: "radix", Procs: 32, Scale: 1.0 / 256, Seed: 1, Knob: core.KnobO, Value: 25, Profile: true},
		{App: "radix", Procs: 32, Scale: 1.0 / 256, Seed: 1, Knob: core.KnobO, Value: 25, CPUSpeedup: 2},
		{App: "radix", Procs: 32, Scale: 1.0 / 256, Seed: 1, Knob: core.KnobO, Value: 25,
			Fault: FaultSpec{DropProb: 0.001, Reliable: true}},
		{App: "radix", Procs: 32, Scale: 1.0 / 256, Seed: 1, Knob: core.KnobO, Value: 25,
			Coll: splitc.Collectives{Barrier: "tree"}},
	}
	seen := map[string]Spec{base.Hash(): base}
	for _, v := range variants {
		h := v.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("hash collision between %v and %v", prev, v)
		}
		seen[h] = v
	}
}

// TestSpecHashQuotesStrings holds the encoding injective over its
// free-form strings: a collective name carrying a newline and the next
// field's key must not forge that field's line.
func TestSpecHashQuotesStrings(t *testing.T) {
	base := Spec{App: "radix", Procs: 32, Scale: 1.0 / 256, Seed: 1}
	a, b := base, base
	a.Coll = splitc.Collectives{Barrier: "tree\ncoll.broadcast=chain"}
	b.Coll = splitc.Collectives{Barrier: "tree", Broadcast: "chain\ncoll.broadcast="}
	if a.Hash() == b.Hash() {
		t.Errorf("%q and %q hash equally:\n%s", a.Coll, b.Coll, a.canonical())
	}
	c := base
	c.App = "radix\nprocs=32"
	if c.Hash() == base.Hash() {
		t.Errorf("app %q hashes as %q", c.App, base.App)
	}
}

// TestSpecHashCoversEveryField fails when Spec (or an embedded struct)
// gains a field the canonical encoding does not yet render — the guard
// that keeps Hash() from silently aliasing new run dimensions. Update
// canonical() AND bump hashVersion, then extend these counts.
func TestSpecHashCoversEveryField(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want int
	}{
		{reflect.TypeOf(Spec{}), 11},
		{reflect.TypeOf(FaultSpec{}), 6},
		{reflect.TypeOf(splitc.Collectives{}), 3},
	} {
		if got := c.typ.NumField(); got != c.want {
			t.Errorf("%v has %d fields, canonical encoding renders %d: update Spec.canonical(), bump hashVersion, re-pin the golden vectors",
				c.typ, got, c.want)
		}
	}
}

// FuzzSpecHash holds Hash to the Store's notion of "the same run": two
// specs that differ in one field hash equally exactly when they
// normalize to the same map key (CPUSpeedup 1, -1 and 0, seed 0 and 1, a
// swept spec's Verify, a baseline's Value, -0 and 0), and a swept spec never takes
// its baseline's address — not even at Δ = 0, where the run pool answers
// it from the baseline: the daemon's cache keeps them apart.
func FuzzSpecHash(f *testing.F) {
	// field picks the one field b differs from a in; str, num and flag
	// are its other value. testdata/fuzz/FuzzSpecHash holds the cases
	// with a name: -0 in each float, CPUSpeedup 1, seed 0, a swept Verify, ….
	f.Add("em3d-read", 8, 0.00048828125, int64(7), -1, 0.0, true, 2.0, true,
		3, 0.5, 1000.0, 0.0, 0.0, false, "tree", "chain", "recdouble",
		uint8(5), "", 99.0, false)
	f.Fuzz(func(t *testing.T, app string, procs int, scale float64, seed int64, knob int, value float64, verify bool, cpu float64, profile bool,
		delayProc int, delayAtFrac, delayUs, dropProb, dupProb float64, reliable bool, barrier, broadcast, allReduce string,
		field uint8, str string, num float64, flag bool) {
		a := Spec{App: app, Procs: procs, Scale: scale, Seed: seed, Knob: core.Knob(knob), Value: value,
			Verify: verify, CPUSpeedup: cpu, Profile: profile,
			Fault: FaultSpec{DelayProc: delayProc, DelayAtFrac: delayAtFrac, DelayUs: delayUs,
				DropProb: dropProb, DupProb: dupProb, Reliable: reliable},
			Coll: splitc.Collectives{Barrier: barrier, Broadcast: broadcast, AllReduce: allReduce}}
		b := a
		switch field % 18 {
		case 0:
			b.App = str
		case 1:
			b.Procs = int(num)
		case 2:
			b.Scale = num
		case 3:
			b.Seed = int64(num)
		case 4:
			b.Knob = core.Knob(int(num))
		case 5:
			b.Value = num
		case 6:
			b.Verify = flag
		case 7:
			b.CPUSpeedup = num
		case 8:
			b.Profile = flag
		case 9:
			b.Fault.DelayProc = int(num)
		case 10:
			b.Fault.DelayAtFrac = num
		case 11:
			b.Fault.DelayUs = num
		case 12:
			b.Fault.DropProb = num
		case 13:
			b.Fault.DupProb = num
		case 14:
			b.Fault.Reliable = flag
		case 15:
			b.Coll.Barrier = str
		case 16:
			b.Coll.Broadcast = str
		case 17:
			b.Coll.AllReduce = str
		}
		if a.norm() != a.norm() || b.norm() != b.norm() {
			t.Skip("a NaN field: the spec is not a map key")
		}
		if same, hashed := a.norm() == b.norm(), a.Hash() == b.Hash(); same != hashed {
			t.Errorf("same map key: %v, same hash: %v\n%+v\n%+v", same, hashed, a.norm(), b.norm())
		}
		if a.Hash() != a.norm().Hash() {
			t.Errorf("%+v hashes apart from its normal form", a)
		}
		if !a.IsBaseline() && a.Hash() == a.BaselineSpec(verify).Hash() {
			t.Errorf("%+v has its baseline's hash", a)
		}
	})
}
