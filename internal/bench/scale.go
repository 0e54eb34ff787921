package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/scalekern"
)

// The scale matrix is reprobench's host-cost view of the weak-scaling
// ladder: where the scale experiment reports virtual-time slowdowns
// (deterministic, jobs-independent), this matrix reports what the same
// ladder costs the host — wall-clock, events per second, and heap bytes
// per simulated processor — for the three scalekern continuation
// kernels at each rung. Its report is BENCH_scale.json.
//
// The two numbers the ladder is designed to pin:
//
//   - events/sec should stay roughly flat from P=32 to P=1M: the
//     resumable runtime costs O(1) host work per event with no
//     per-processor goroutine, so machine size must not degrade event
//     throughput (beyond cache effects of the larger working set).
//   - bytes/proc should stay near-flat: weak scaling fixes per-processor
//     work, so allocation growing with P would mean a hidden
//     machine-size-proportional cost per processor.

// ScaleOptions selects the scale-matrix variant.
type ScaleOptions struct {
	// Quick stops the ladder at 10k processors (CI smoke mode).
	Quick bool
	// Seed fixes the kernel inputs.
	Seed int64
}

// Norm fills in defaults.
func (o ScaleOptions) Norm() ScaleOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// scaleLadder is the processor-count ladder. Quick mode is the CI
// subset; the full ladder's 1M rung is minutes of host time.
func scaleLadder(o ScaleOptions) []int {
	if o.Quick {
		return []int{32, 1_000, 10_000}
	}
	return []int{32, 1_000, 10_000, 100_000, 1_000_000}
}

// RunScale executes the scale matrix and assembles the report.
func RunScale(o ScaleOptions) (*Report, error) {
	o = o.Norm()
	r := &Report{
		Schema:    1,
		Quick:     o.Quick,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
	}
	for _, app := range scalekern.All() {
		for _, procs := range scaleLadder(o) {
			c, err := scaleCase(app, procs, o)
			if err != nil {
				return nil, err
			}
			r.Cases = append(r.Cases, c)
		}
	}
	return r, nil
}

// scaleCase runs one kernel at one rung, once: the big rungs run for
// minutes, so a single repetition is already far above timer noise, and
// the small-rung noise is absorbed by the comparison tolerance.
func scaleCase(app apps.App, procs int, o ScaleOptions) (Case, error) {
	cfg := apps.Config{Procs: procs, Scale: 1.0 / 256, Seed: o.Seed}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := app.Run(cfg)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return Case{}, fmt.Errorf("bench %s P=%d: %w", app.Name(), procs, err)
	}
	messages := res.Stats.TotalSent()
	c := Case{
		Name:         fmt.Sprintf("%s-P%d", app.Name(), procs),
		Procs:        procs,
		Messages:     messages,
		WallMs:       float64(wall.Nanoseconds()) / 1e6,
		Allocs:       int64(after.Mallocs - before.Mallocs),
		BytesPerProc: float64(after.TotalAlloc-before.TotalAlloc) / float64(procs),
		Switches:     res.Sched.Switches,
		EventsRun:    res.Sched.EventsRun,
	}
	if messages > 0 {
		c.NsPerMsg = float64(wall.Nanoseconds()) / float64(messages)
		c.AllocsPerMsg = float64(c.Allocs) / float64(messages)
	}
	if s := wall.Seconds(); s > 0 {
		c.EventsPerSec = float64(c.EventsRun) / s
	}
	return c, nil
}
