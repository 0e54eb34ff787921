// Package core implements the paper's primary methodological
// contribution (§3.2): treating a communication architecture as a
// baseline machine plus four independently adjustable LogGP deltas — a
// "design point" — and measuring application slowdown as the design point
// moves away from the aggressive baseline. Everything in internal/exp is
// a particular walk through this design space.
package core

import (
	"errors"
	"fmt"

	"repro/internal/apps"
	"repro/internal/logp"
	"repro/internal/sim"
)

// Knob identifies one of the four independently variable LogGP
// parameters.
type Knob int

// KnobNone marks a run on the unmodified machine — the baseline of a
// sweep. Apply with KnobNone returns the parameters untouched.
const KnobNone Knob = -1

const (
	// KnobO adds per-message processor overhead (µs), charged at each
	// send and each receive.
	KnobO Knob = iota
	// KnobG adds NIC injection gap (µs) after each message reaches the
	// wire.
	KnobG
	// KnobL adds network latency (µs) at the receiver's delay queue.
	KnobL
	// KnobBW caps the bulk-transfer bandwidth (MB/s); 0 means the
	// machine's own rate.
	KnobBW
)

func (k Knob) String() string {
	switch k {
	case KnobNone:
		return "baseline"
	case KnobO:
		return "overhead"
	case KnobG:
		return "gap"
	case KnobL:
		return "latency"
	case KnobBW:
		return "bulk-bandwidth"
	}
	return fmt.Sprintf("Knob(%d)", int(k))
}

// Apply returns base with the knob set to v (µs for KnobO/G/L, MB/s for
// KnobBW). The other knobs are left untouched — the independence the
// calibration tables verify.
func (k Knob) Apply(base logp.Params, v float64) logp.Params {
	switch k {
	case KnobO:
		base.DeltaO = sim.FromMicros(v)
	case KnobG:
		base.DeltaG = sim.FromMicros(v)
	case KnobL:
		base.DeltaL = sim.FromMicros(v)
	case KnobBW:
		base.BulkBandwidthMBs = v
	}
	return base
}

// Point is one measured design point of a sweep.
type Point struct {
	// Value is the knob setting (µs or MB/s).
	Value float64
	// Elapsed is the run's virtual makespan (zero when livelocked).
	Elapsed sim.Time
	// Slowdown is Elapsed relative to the sweep's baseline.
	Slowdown float64
	// Livelocked marks runs that exceeded the livelock bound — the
	// paper's "N/A" entries for Barnes under high overhead.
	Livelocked bool
}

// LivelockFactor bounds each swept run at this multiple of the baseline
// run time; beyond it the run is declared livelocked. The paper's largest
// observed slowdown is ~60x, so 300x is generous headroom.
const LivelockFactor = 300

// Measure runs a single design point and returns its measurement plus
// the full application Result of the swept run (zero when livelocked),
// for experiments that need more than the makespan — per-phase shares,
// communication stats. baseline provides the slowdown denominator and
// livelock bound.
//
// Sweeps over many design points are declared as a run.Plan and executed
// on the internal/run worker pool; Measure is the leaf that pool calls.
func Measure(a apps.App, cfg apps.Config, k Knob, v float64, baseline sim.Time) (Point, apps.Result, error) {
	cfg = cfg.Norm()
	cfg.Params = k.Apply(cfg.Params, v)
	cfg.Verify = false
	cfg.TimeLimit = baseline * LivelockFactor
	res, err := a.Run(cfg)
	pt := Point{Value: v}
	if errors.Is(err, sim.ErrTimeLimit) {
		pt.Livelocked = true
		return pt, apps.Result{}, nil
	}
	if err != nil {
		return pt, apps.Result{}, fmt.Errorf("core: %s at %v=%g: %w", a.Name(), k, v, err)
	}
	pt.Elapsed = res.Elapsed
	if baseline > 0 {
		pt.Slowdown = float64(res.Elapsed) / float64(baseline)
	}
	return pt, res, nil
}
