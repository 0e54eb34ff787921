package main

import (
	"reflect"
	"testing"

	"repro/internal/service"
)

func TestGenRound(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		mix  []share
		want map[string]int
	}{
		{"serve-hot round", 4000, hotMix, map[string]int{classHit: 3200, classHitFull: 800}},
		{"serve-mixed round", 1200, mixedMix, map[string]int{classHit: 648, classHitCool: 300, classMiss: 240, classTable: 12}},
		{"serve-mixed smoke round", 200, mixedMix, map[string]int{classHit: 108, classHitCool: 50, classMiss: 40, classTable: 2}},
	} {
		for _, seed := range []int64{1, 2, 99} {
			slots := genRound(seed, 0, tc.n, tc.mix)
			if len(slots) != tc.n {
				t.Errorf("%s seed %d: %d slots, want %d", tc.name, seed, len(slots), tc.n)
			}
			got := map[string]int{}
			for _, s := range slots {
				got[s.class]++
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s seed %d: class counts %v, want exactly %v", tc.name, seed, got, tc.want)
			}
		}
	}
}

func TestGenRoundIsSeeded(t *testing.T) {
	a := genRound(7, 3, 1200, mixedMix)
	if b := genRound(7, 3, 1200, mixedMix); !reflect.DeepEqual(a, b) {
		t.Error("the same seed and round gave two different sequences")
	}
	for _, other := range [][]slot{genRound(8, 3, 1200, mixedMix), genRound(7, 4, 1200, mixedMix)} {
		if reflect.DeepEqual(a, other) {
			t.Error("another seed or round gave the same sequence")
		}
	}
	// Shuffled, not laid out class by class.
	if first := a[0].class; func() bool {
		for _, s := range a[:648] {
			if s.class != first {
				return false
			}
		}
		return true
	}() {
		t.Error("round is not shuffled")
	}
}

func TestRequestCheck(t *testing.T) {
	hit := request{class: classHit, wantHash: "h", wantElapsed: 42}
	miss := request{class: classMiss, wantHash: "h"}
	table := request{class: classTable, wantText: "== fig5b =="}
	for _, tc := range []struct {
		name string
		rq   request
		a    answer
		ok   bool
	}{
		{"hit from disk", hit, answer{Hash: "h", ElapsedNs: 42, Source: service.SourceDisk}, true},
		{"hit sharing another client's load", hit, answer{Hash: "h", ElapsedNs: 42, Source: service.SourceCoalesced}, true},
		{"hit that was recomputed", hit, answer{Hash: "h", ElapsedNs: 42, Source: service.SourceComputed}, false},
		{"hit with another virtual time", hit, answer{Hash: "h", ElapsedNs: 43, Source: service.SourceDisk}, false},
		{"hit with another hash", hit, answer{Hash: "x", ElapsedNs: 42, Source: service.SourceDisk}, false},
		{"miss computed", miss, answer{Hash: "h", ElapsedNs: 9, Source: service.SourceComputed}, true},
		{"miss served from disk", miss, answer{Hash: "h", ElapsedNs: 9, Source: service.SourceDisk}, false},
		{"miss with no virtual time", miss, answer{Hash: "h", Source: service.SourceComputed}, false},
		{"table", table, answer{Text: "== fig5b =="}, true},
		{"table with a flipped cell", table, answer{Text: "== fig5c =="}, false},
	} {
		if err := tc.rq.check(tc.a); (err == nil) != tc.ok {
			t.Errorf("%s: check = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
