// Package scalekern holds the weak-scaling kernel suite: three small,
// communication-faithful kernels used to push the simulated machine far
// past the paper's 32 processors (the scale experiment runs them at up
// to P = 1M). Each kernel is a resumable splitc.Task state machine, so
// a run holds no per-processor stack; its virtual timeline is pinned by
// its Verify self-check against a serial reference, by the package's
// TestKernelTimelinesPinned at small P and by benchmark/golden.json at
// P = 10 000.
//
// The kernels cover the three communication archetypes of the paper's
// suite:
//
//   - scale-radix — barrier-synchronized: a one-digit parallel counting
//     sort (histogram, prefix scans, permute via pipelined writes), the
//     communication skeleton of Radix.
//   - scale-em3d  — pipelined: iterations of short boundary writes plus
//     a bulk field push around a ring, the skeleton of EM3D.
//   - scale-pray  — request/reply: rounds of blocking reads from hashed
//     partners, the skeleton of P-Ray's scene-cache lookups.
//
// Work is sized per processor (weak scaling): Config.Scale sets the
// per-processor work, and total work grows linearly with P while the
// synchronization depth grows as log P.
package scalekern

import (
	"fmt"

	"repro/internal/apps"
)

// All returns the kernel suite in canonical order.
func All() []apps.App {
	return []apps.App{Radix{}, Em3d{}, Pray{}}
}

// Names lists the kernel names in canonical order.
func Names() []string {
	var out []string
	for _, a := range All() {
		out = append(out, a.Name())
	}
	return out
}

// ByName resolves a kernel by name.
func ByName(name string) (apps.App, error) {
	for _, a := range All() {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("scalekern: unknown kernel %q (have %v)", name, Names())
}

// splitmix64 is the kernels' deterministic hash: input generation and
// partner selection derive from it so reruns see bit-identical inputs
// without touching the per-processor PRNG.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
