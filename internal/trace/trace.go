// Package trace records per-message event timelines from a simulated run
// and renders them as per-processor activity lanes — the observability
// layer a simulator library needs when a sensitivity curve looks wrong
// and the question becomes "what was processor 7 doing at t=40ms?".
package trace

import (
	"fmt"
	"strings"

	"repro/internal/am"
	"repro/internal/sim"
)

// Event is one recorded message event.
type Event struct {
	At      sim.Time
	Src     int
	Dst     int
	Class   am.Class
	Bulk    bool
	Handled bool // false = sent, true = handler completed
}

// Recorder buffers every message event. It embeds am.NopHooks, so it
// implements the full am.Hooks interface while only caring about the two
// message events: clock, wire and sync events reach it as no-op calls.
// Attach with splitc.World.Attach(rec) (or apps.Config.Hooks) and read
// after the run ends. Memory is ~48 bytes per event: trace short runs,
// or use Sample to thin long ones; Digest compares runs without
// buffering.
type Recorder struct {
	am.NopHooks

	Events []Event
	// Limit, when nonzero, caps the number of buffered events; further
	// events are dropped and counted in Dropped.
	Limit   int
	Dropped int64
}

var _ am.Hooks = (*Recorder)(nil)

// MessageSent implements am.Hooks, recording the hand-off instant.
func (r *Recorder) MessageSent(e am.SendEvent) {
	r.add(Event{At: e.At, Src: e.Src, Dst: e.Dst, Class: e.Class, Bulk: e.Bulk})
}

// MessageHandled implements am.Hooks.
func (r *Recorder) MessageHandled(src, dst int, class am.Class, bulk bool, at sim.Time) {
	r.add(Event{At: at, Src: src, Dst: dst, Class: class, Bulk: bulk, Handled: true})
}

func (r *Recorder) add(e Event) {
	if r.Limit > 0 && len(r.Events) >= r.Limit {
		r.Dropped++
		return
	}
	r.Events = append(r.Events, e)
}

// Span reports the time range covered by the recorded events.
func (r *Recorder) Span() (sim.Time, sim.Time) {
	if len(r.Events) == 0 {
		return 0, 0
	}
	lo, hi := r.Events[0].At, r.Events[0].At
	for _, e := range r.Events {
		if e.At < lo {
			lo = e.At
		}
		if e.At > hi {
			hi = e.At
		}
	}
	return lo, hi
}

// Timeline renders per-processor activity lanes: the run is divided into
// `cols` equal time buckets and each cell shows the send activity of one
// processor in one bucket, shaded by message count (receive-side handler
// events shade the same scale). One line per processor.
func (r *Recorder) Timeline(procs, cols int) string {
	if cols < 1 || procs < 1 || len(r.Events) == 0 {
		return "(no events)\n"
	}
	lo, hi := r.Span()
	span := hi - lo + 1
	counts := make([][]int, procs)
	for i := range counts {
		counts[i] = make([]int, cols)
	}
	mx := 0
	for _, e := range r.Events {
		lane := e.Src
		if e.Handled {
			lane = e.Dst
		}
		if lane < 0 || lane >= procs {
			continue
		}
		b := int(int64(e.At-lo) * int64(cols) / int64(span))
		if b >= cols {
			b = cols - 1
		}
		counts[lane][b]++
		if counts[lane][b] > mx {
			mx = counts[lane][b]
		}
	}
	shades := []rune(" .:-=+*#%@█")
	var b strings.Builder
	fmt.Fprintf(&b, "timeline %v .. %v (%d buckets, max %d events/cell)\n", lo, hi, cols, mx)
	for p := 0; p < procs; p++ {
		fmt.Fprintf(&b, "p%-3d |", p)
		for c := 0; c < cols; c++ {
			idx := 0
			if mx > 0 && counts[p][c] > 0 {
				idx = 1 + (len(shades)-2)*counts[p][c]/mx
				if idx >= len(shades) {
					idx = len(shades) - 1
				}
			}
			b.WriteRune(shades[idx])
		}
		b.WriteString("|\n")
	}
	if r.Dropped > 0 {
		fmt.Fprintf(&b, "(%d events dropped beyond the %d-event limit)\n", r.Dropped, r.Limit)
	}
	return b.String()
}

// Counts summarizes the recorded events by class.
func (r *Recorder) Counts() (sent, handled, bulk, reads int64) {
	for _, e := range r.Events {
		if e.Handled {
			handled++
			continue
		}
		sent++
		if e.Bulk {
			bulk++
		}
		if e.Class == am.ClassRead {
			reads++
		}
	}
	return
}

// Sample returns a thinned copy keeping every k-th event (k >= 1). The
// copy keeps Limit and Dropped, so a thinned timeline still reports that
// the original recording was truncated.
func (r *Recorder) Sample(k int) *Recorder {
	if k < 1 {
		k = 1
	}
	out := &Recorder{Limit: r.Limit, Dropped: r.Dropped}
	for i, e := range r.Events {
		if i%k == 0 {
			out.Events = append(out.Events, e)
		}
	}
	return out
}
