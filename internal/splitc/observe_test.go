package splitc_test

import (
	"testing"

	"repro/internal/depgraph"
	"repro/internal/logp"
	"repro/internal/prof"
	"repro/internal/splitc"
	"repro/internal/trace"
)

// TestObservationDoesNotPerturbTasks is the RunTasks half of the
// observation contract (the Run half, on the paper applications, is
// depgraph's TestObservationDoesNotPerturbVirtualTime): the twin program
// — every primitive family — runs bare and with the profiler, a trace
// recorder and the dependency-graph builder attached together; makespan
// and message count must not move.
func TestObservationDoesNotPerturbTasks(t *testing.T) {
	const P = 8
	run := func(observe bool) *splitc.World {
		t.Helper()
		w, err := splitc.NewWorld(P, logp.NOW(), 42)
		if err != nil {
			t.Fatal(err)
		}
		if observe {
			w.Attach(prof.New(P), &trace.Recorder{}, depgraph.New(P, logp.NOW()))
		}
		res := make([]uint64, P)
		if err := w.RunTasks(func(int) splitc.Task { return splitc.NewTwinTask(res) }); err != nil {
			t.Fatalf("observe=%v: %v", observe, err)
		}
		return w
	}
	bare, seen := run(false), run(true)
	if err := prof.Attached(seen).Snapshot(seen).CheckConservation(); err != nil {
		t.Errorf("profiler attached but unsound: %v", err)
	}
	if b, s := bare.Elapsed(), seen.Elapsed(); b != s {
		t.Errorf("elapsed %v bare, %v observed", b, s)
	}
	if b, s := bare.Stats().TotalSent(), seen.Stats().TotalSent(); b != s {
		t.Errorf("%d messages bare, %d observed", b, s)
	}
}
