// Package sim provides a deterministic discrete-event simulation engine
// for SPMD cluster programs: one cooperative scheduler, two forms a
// processor body may take.
//
// Exactly one of the P logical processors executes at a time, and at
// every synchronization point (a "checkpoint") control passes to the
// runnable processor with the smallest virtual clock, ties broken by id.
// A body is either a state machine the scheduler steps in place
// (Engine.RunResumables) — no stack per processor, which is what lets
// the simulated machine scale to a million processors — or an ordinary
// blocking function (Engine.Run / RunEach), which the scheduler steps the
// same way through a coroutine that suspends it at each wait. Waits are
// records the scheduler iterates, not loops the body runs, so both forms
// go through the same code and every run is bit-for-bit reproducible.
// Pending events whose timestamps have been reached are executed before
// any processor proceeds past them, so processors observe a causally
// consistent virtual timeline.
package sim

import "fmt"

// Time is a point in (or span of) virtual time, measured in nanoseconds.
// Nanosecond granularity lets LogGP parameters expressed in fractional
// microseconds (for example o_send = 1.8 µs) be represented exactly.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Micros converts t to floating-point microseconds, the unit the paper
// reports LogGP parameters in.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromMicros builds a Time from floating-point microseconds, rounding to the
// nearest nanosecond.
func FromMicros(us float64) Time {
	if us < 0 {
		return Time(us*float64(Microsecond) - 0.5)
	}
	return Time(us*float64(Microsecond) + 0.5)
}

// FromSeconds builds a Time from floating-point seconds.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.3fµs", t.Micros())
	}
}
