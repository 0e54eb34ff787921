package analysis

import "testing"

// TestServiceScopeDecision pins the determinism boundary for the
// daemon layer (DESIGN.md §7, §13): internal/service and cmd/reprod sit
// outside the simulation, so the sim-only analyzers (simwallclock,
// goroutinefree) and the no-global-state analyzers must not claim them —
// the daemon legitimately uses wall-clock time, goroutines, and mutable
// server state. The module-wide analyzers (seededrand, maporder) still
// cover them: any randomness there must be seeded and every JSON/stats
// surface must iterate maps in sorted order.
func TestServiceScopeDecision(t *testing.T) {
	outside := []string{"repro/internal/service", "repro/cmd/reprod"}
	for _, pkg := range outside {
		if inScope(pkg, simScopes()) {
			t.Errorf("%s is in simScopes; the daemon is outside the simulation boundary", pkg)
		}
		if inScope(pkg, noGlobalScopes()) {
			t.Errorf("%s is in noGlobalScopes; the daemon holds server state by design", pkg)
		}
	}
	// The engine packages the daemon builds on stay inside the boundary.
	for _, pkg := range []string{"repro/internal/am", "repro/internal/sim"} {
		if !inScope(pkg, simScopes()) {
			t.Errorf("%s missing from simScopes", pkg)
		}
	}
	if !inScope("repro/internal/run", noGlobalScopes()) {
		t.Error("repro/internal/run missing from noGlobalScopes")
	}
}

// TestDepgraphScopeDecision pins the analytic engine's side of the
// boundary (DESIGN.md §14): internal/depgraph builds its DAG inside the
// simulation loop — one event hook per message phase, on the clock's
// critical path — and internal/tolerance is pure int64 arithmetic over
// that DAG, run at the end of every instrumented run (apps.Config's
// Depgraph, which benchmark/ and the depgraph tests set). Both must be
// single-goroutine, wall-clock-free, and free of package-level mutable
// state so instrumented runs stay deterministic and the -jobs pool can
// analyze overlapping specs concurrently. (hotpathalloc needs no scope
// entry: it follows //repro:hotpath directives, which the builder's
// steady-path functions carry.)
func TestDepgraphScopeDecision(t *testing.T) {
	for _, pkg := range []string{"repro/internal/depgraph", "repro/internal/tolerance"} {
		if !inScope(pkg, simScopes()) {
			t.Errorf("%s missing from simScopes; the analytic engine runs inside the simulation boundary", pkg)
		}
		if !inScope(pkg, noGlobalScopes()) {
			t.Errorf("%s missing from noGlobalScopes; concurrent workers analyze overlapping specs", pkg)
		}
	}
}
