package splitc

import "repro/internal/sim"

// Phase accounting: applications label their algorithmic phases and the
// world accumulates per-phase virtual time, which is how the paper
// attributes Radix's overhead hypersensitivity to its serialized global
// histogram phase (20% of run time at baseline, 60% at Δo=100µs).

type phaseAccount struct {
	totals map[string]sim.Time
	order  []string
}

// EnterPhase switches the processor's active phase label; time accrues to
// the label until the next EnterPhase (or the end of the run). Labels are
// global across processors: per-phase totals sum every processor's time
// in that phase. A Task calls it between primitives; a blocking body
// reaches it through Proc.
func (t *TProc) EnterPhase(name string) {
	now := t.sp.Clock()
	if t.phaseName != "" {
		t.w.addPhaseTime(t.phaseName, now-t.phaseStart)
	}
	t.phaseName = name
	t.phaseStart = now
}

// closePhase flushes the open phase once the terminal barrier is over
// (Run and TProc.Resume).
func (t *TProc) closePhase() {
	if t.phaseName != "" {
		t.w.addPhaseTime(t.phaseName, t.sp.Clock()-t.phaseStart)
		t.phaseName = ""
	}
}

func (w *World) addPhaseTime(name string, d sim.Time) {
	if w.phases.totals == nil {
		w.phases.totals = make(map[string]sim.Time)
	}
	if _, ok := w.phases.totals[name]; !ok {
		w.phases.order = append(w.phases.order, name)
	}
	w.phases.totals[name] += d
}

// PhaseNames lists the phase labels in first-entry order.
func (w *World) PhaseNames() []string {
	return append([]string(nil), w.phases.order...)
}

// PhaseTime reports the total processor-time accumulated under a label
// (summed across processors).
func (w *World) PhaseTime(name string) sim.Time {
	return w.phases.totals[name]
}

// PhaseFraction reports a phase's share of total labeled time.
func (w *World) PhaseFraction(name string) float64 {
	var total sim.Time
	for _, t := range w.phases.totals {
		total += t
	}
	if total == 0 {
		return 0
	}
	return float64(w.phases.totals[name]) / float64(total)
}
