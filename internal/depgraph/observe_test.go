package depgraph_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/suite"
	"repro/internal/trace"
)

// TestObservationDoesNotPerturbVirtualTime pins the contract every hooks
// consumer lives under: attaching instrumentation must not move a single
// simulated timestamp. Each application runs bare and again with the
// profiler, a trace recorder and the dependency-graph builder attached
// together through World.Attach (the three consumers the harness ships);
// makespan and message count must be identical. (The RunTasks driver's
// half of this contract is splitc's TestObservationDoesNotPerturbTasks.)
func TestObservationDoesNotPerturbVirtualTime(t *testing.T) {
	for _, name := range []string{"radix", "em3d-read"} {
		t.Run(name, func(t *testing.T) {
			app, err := suite.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := apps.Config{Procs: 8, Scale: 1.0 / 2048, Seed: 1}.Norm()
			bare, err := app.Run(cfg)
			if err != nil {
				t.Fatalf("bare: %v", err)
			}
			rec := &trace.Recorder{}
			cfg.Profile, cfg.Depgraph, cfg.Hooks = true, true, rec
			seen, err := app.Run(cfg)
			if err != nil {
				t.Fatalf("observed: %v", err)
			}
			if seen.Profile == nil || seen.Graph == nil {
				t.Fatalf("consumers not attached (profile %v, graph %v, %s)", seen.Profile != nil, seen.Graph != nil, seen.DepgraphErr)
			}
			if sent, _, _, _ := rec.Counts(); sent != seen.Stats.TotalSent() {
				t.Errorf("recorder saw %d sends, stats count %d", sent, seen.Stats.TotalSent())
			}
			if bare.Elapsed != seen.Elapsed {
				t.Errorf("elapsed %v bare, %v observed", bare.Elapsed, seen.Elapsed)
			}
			if b, s := bare.Stats.TotalSent(), seen.Stats.TotalSent(); b != s {
				t.Errorf("%d messages bare, %d observed", b, s)
			}
		})
	}
}
