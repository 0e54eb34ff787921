package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name  string
		spans []span
		want  map[int]time.Duration
	}{
		{
			name:  "a leaf's self time is its duration",
			spans: []span{{ID: 1, Start: 0, End: 10 * ms}},
			want:  map[int]time.Duration{1: 10 * ms},
		},
		{
			name: "children in sequence",
			spans: []span{
				{ID: 1, Start: 0, End: 10 * ms},
				{ID: 2, Parent: 1, Start: 1 * ms, End: 4 * ms},
				{ID: 3, Parent: 1, Start: 5 * ms, End: 9 * ms},
			},
			want: map[int]time.Duration{1: 3 * ms, 2: 3 * ms, 3: 4 * ms},
		},
		{
			// Jobs: 2 — two runs at once under one RunInto span. The
			// union of [1,6] and [4,9] covers 8 ms, not 10.
			name: "overlapping children are counted once",
			spans: []span{
				{ID: 1, Start: 0, End: 10 * ms},
				{ID: 2, Parent: 1, Start: 1 * ms, End: 6 * ms},
				{ID: 3, Parent: 1, Start: 4 * ms, End: 9 * ms},
			},
			want: map[int]time.Duration{1: 2 * ms, 2: 5 * ms, 3: 5 * ms},
		},
		{
			name: "a child nested in its sibling adds nothing",
			spans: []span{
				{ID: 1, Start: 0, End: 10 * ms},
				{ID: 2, Parent: 1, Start: 2 * ms, End: 8 * ms},
				{ID: 3, Parent: 1, Start: 3 * ms, End: 5 * ms},
			},
			want: map[int]time.Duration{1: 4 * ms, 2: 6 * ms, 3: 2 * ms},
		},
		{
			// A run span reconstructed from run.Progress may start a
			// little before the RunInto span's own clock reading.
			name: "a child is clipped to its parent",
			spans: []span{
				{ID: 1, Start: 2 * ms, End: 10 * ms},
				{ID: 2, Parent: 1, Start: 1 * ms, End: 12 * ms},
			},
			want: map[int]time.Duration{1: 0, 2: 11 * ms},
		},
		{
			name: "grandchildren reduce the child, not the grandparent",
			spans: []span{
				{ID: 1, Start: 0, End: 10 * ms},
				{ID: 2, Parent: 1, Start: 0, End: 8 * ms},
				{ID: 3, Parent: 2, Start: 1 * ms, End: 7 * ms},
			},
			want: map[int]time.Duration{1: 2 * ms, 2: 2 * ms, 3: 6 * ms},
		},
	} {
		got := selfTimes(tc.spans)
		for id, want := range tc.want {
			if got[id] != want {
				t.Errorf("%s: span %d self time %v, want %v", tc.name, id, got[id], want)
			}
		}
	}
}

func TestLayerSelfSumsByLayer(t *testing.T) {
	const ms = time.Millisecond
	spans := []span{
		{ID: 1, Layer: layerBench, Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Layer: layerRun, Start: 1 * ms, End: 9 * ms},
		{ID: 3, Parent: 2, Layer: layerApps, Start: 1 * ms, End: 5 * ms},
		{ID: 4, Parent: 2, Layer: layerApps, Start: 3 * ms, End: 9 * ms},
	}
	got := layerSelf(spans)
	want := map[string]time.Duration{layerBench: 2 * ms, layerRun: 0, layerApps: 10 * ms}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("layer %s self time %v, want %v", l, got[l], w)
		}
	}
}

// TestAdoptRuns: two runs of one app in flight at once, the shorter
// inside the longer's interval; each App.Run span must find its own spec.
func TestAdoptRuns(t *testing.T) {
	const ms = time.Millisecond
	spans := []span{
		{ID: 1, Layer: layerRun, Name: "RunInto", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Layer: layerRun, Name: "radix/p32 overhead=100", Start: 10 * ms, End: 90 * ms},
		{ID: 3, Parent: 1, Layer: layerRun, Name: "radix/p32 overhead=5", Start: 30 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Layer: layerRun, Name: "em3d-read/p32 baseline", Start: 50 * ms, End: 95 * ms},
		{ID: 5, Layer: layerApps, Name: "radix", Start: 31 * ms, End: 49 * ms},
		{ID: 6, Layer: layerApps, Name: "radix", Start: 11 * ms, End: 89 * ms},
		{ID: 7, Layer: layerApps, Name: "em3d-read", Start: 51 * ms, End: 94 * ms},
		{ID: 8, Layer: layerApps, Name: "em3d", Start: 51 * ms, End: 94 * ms}, // no spec of that app
	}
	adoptRuns(spans)
	for id, want := range map[int]int{5: 3, 6: 2, 7: 4, 8: 0} {
		if got := spans[id-1].Parent; got != want {
			t.Errorf("span %d (%s) adopted by %d, want %d", id, spans[id-1].Name, got, want)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin(0, 0, layerRun, "x")
	r.end(id)
	r.add(0, layerRun, "x", 0, 1)
	if id != 0 || r.snapshot() != nil {
		t.Error("a nil recorder must be inert")
	}
}
