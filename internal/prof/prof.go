// Package prof is a per-processor virtual-time accountant: attached to a
// run through the am.Hooks instrumentation seam, it classifies every
// nanosecond of every processor's timeline into one of ten paper
// categories — compute, send overhead, receive overhead, gap stall,
// window (capacity) stall, latency wait, bulk bandwidth, barrier wait,
// lock wait, and disk/sleep — plus two fault-injection accounts
// (retransmit and fault-delay, populated only when a fault plan or the
// reliability layer is active) and proves conservation: the categories
// sum exactly to the run's makespan on every processor.
//
// The accounting combines three kinds of am.Hooks event:
//
//   - clock advances no charge names (ClockAdvanced): idle spins and
//     wake jumps are the processor's blocked time, fault-injected
//     stretches its fault delay;
//   - charges: each MessageSent names its o_send span and records when
//     the NIC transmit context is gap- or DMA-limited; RecvOverhead and
//     ComputeCharged name the o_recv and compute spans. A charge path
//     missing its hook leaves a hole CheckConservation reports;
//   - wait and region context: WaitBegin/WaitEnd tag why the processor
//     blocks (window, read, store, bulk, barrier, lock), and the
//     SyncEnter/SyncExit regions splitc reports reclassify time inside
//     Barrier and Lock.
//
// Blocked time is split against the transmit-context reservations: the
// part of a wait during which the NIC was still gap-limited on earlier
// sends is a gap stall, the part it was DMA-limited is bulk bandwidth,
// and only the remainder is charged to the wait's own category. The
// backlog is only counted up to the last injection instant — a blocking
// read that finds a free NIC charges latency, never gap. All arithmetic
// is integer sim.Time, so conservation is exact, not approximate.
package prof

import (
	"fmt"
	"strings"

	"repro/internal/am"
	"repro/internal/sim"
	"repro/internal/splitc"
)

// Category is one account of the per-processor time breakdown.
type Category uint8

const (
	// CatCompute is local computation (Endpoint.Compute charges).
	CatCompute Category = iota
	// CatOSend is host send overhead: o_send (plus Δo) per message.
	CatOSend
	// CatORecv is host receive overhead: o_recv (plus Δo) per message.
	CatORecv
	// CatGap is gap stall: blocked time during which the NIC transmit
	// context was still paced by g (plus Δg) on previously issued sends.
	CatGap
	// CatWindow is capacity stall: blocked on a full outstanding-request
	// window, beyond any transmit-context backlog.
	CatWindow
	// CatLatency is latency wait: blocked on a remote round trip (reads,
	// store acks, data dependencies), beyond any transmit backlog.
	CatLatency
	// CatBulk is bulk bandwidth: blocked time attributable to fragment
	// DMA — the G·size occupancy of the transmit context, or a bulk get
	// awaiting its DMA replies.
	CatBulk
	// CatBarrier is barrier wait: blocked inside Barrier or a collective
	// (exit skew after the final implied barrier is also charged here).
	CatBarrier
	// CatLock is lock wait: lock round trips, retry spins inside Lock,
	// and atomic fetch-add / compare-swap round trips.
	CatLock
	// CatSleep is non-network sleep: virtual time advanced by
	// sim.Proc.SleepUntil outside any communication wait — the disk model
	// (NOW-sort) is the suite's only such path.
	CatSleep
	// CatRetransmit is reliability-protocol overhead: blocked time during
	// which the NIC transmit context was occupied by timeout-driven
	// re-injections of unacked messages.
	CatRetransmit
	// CatFaultDelay is fault-injected processor time: one-off stalls
	// appended to explicit charges by the fault injector
	// (sim.ClockStretch spans).
	CatFaultDelay

	// NumPaperCategories counts the original ten accounts; rendered
	// tables that predate fault injection iterate only these, keeping
	// their output stable for fault-free runs.
	NumPaperCategories = int(CatSleep) + 1
	// NumCategories sizes per-category arrays.
	NumCategories = int(CatFaultDelay) + 1
)

func (c Category) String() string {
	switch c {
	case CatCompute:
		return "compute"
	case CatOSend:
		return "o-send"
	case CatORecv:
		return "o-recv"
	case CatGap:
		return "gap"
	case CatWindow:
		return "window"
	case CatLatency:
		return "latency"
	case CatBulk:
		return "bulk-bw"
	case CatBarrier:
		return "barrier"
	case CatLock:
		return "lock"
	case CatSleep:
		return "disk/sleep"
	case CatRetransmit:
		return "retransmit"
	case CatFaultDelay:
		return "fault-delay"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Categories returns every category in display order.
func Categories() []Category {
	out := make([]Category, NumCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// PaperCategories returns the original ten accounts in display order,
// excluding the fault-injection extras.
func PaperCategories() []Category {
	return Categories()[:NumPaperCategories]
}

// ProcBreakdown is one processor's complete time attribution.
type ProcBreakdown struct {
	// Proc is the processor id.
	Proc int
	// Time holds the attributed virtual time per category; the entries
	// sum exactly to the run's makespan.
	Time [NumCategories]sim.Time
}

// Total is the breakdown's sum.
func (b *ProcBreakdown) Total() sim.Time {
	var sum sim.Time
	for _, d := range b.Time {
		sum += d
	}
	return sum
}

// Profile is the full stall attribution of one completed run.
type Profile struct {
	// Procs holds one breakdown per processor.
	Procs []ProcBreakdown
	// Elapsed is the run's makespan.
	Elapsed sim.Time
}

// Total is the cluster-wide time in one category.
func (p *Profile) Total(c Category) sim.Time {
	var sum sim.Time
	for i := range p.Procs {
		sum += p.Procs[i].Time[c]
	}
	return sum
}

// Share is a category's fraction of the cluster's total time
// (P × makespan); across all categories the shares sum to 1.
func (p *Profile) Share(c Category) float64 {
	if p.Elapsed <= 0 || len(p.Procs) == 0 {
		return 0
	}
	return float64(p.Total(c)) / (float64(p.Elapsed) * float64(len(p.Procs)))
}

// CheckConservation verifies the accountant's invariant: on every
// processor the categories sum exactly to the makespan. A charge path
// missing its hook falls short here.
func (p *Profile) CheckConservation() error {
	for i := range p.Procs {
		if got := p.Procs[i].Total(); got != p.Elapsed {
			return fmt.Errorf("prof: proc %d attribution sums to %v, makespan is %v (off by %v)",
				i, got, p.Elapsed, p.Elapsed-got)
		}
	}
	return nil
}

// Text renders the cluster-wide breakdown as an aligned block: average
// time per processor and share of total processor-time per category.
func (p *Profile) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stall attribution (makespan %v, %d procs):\n", p.Elapsed, len(p.Procs))
	procs := len(p.Procs)
	if procs == 0 {
		return b.String()
	}
	for _, c := range Categories() {
		tot := p.Total(c)
		if tot == 0 {
			continue
		}
		ms := float64(tot) / float64(procs) / float64(sim.Millisecond)
		fmt.Fprintf(&b, "  %-10s %12.3f ms/proc  %6.2f%%\n", c, ms, 100*p.Share(c))
	}
	return b.String()
}

// txSeg is one transmit-context reservation: the NIC is gap-limited on
// [inject, gapEnd) and DMA-limited on [gapEnd, busyEnd). Segments are
// created in injection order and never overlap (each send injects at or
// after the previous busyEnd).
type txSeg struct {
	inject, gapEnd, busyEnd sim.Time
	// retrans marks reliability-layer re-injections: blocked time they
	// explain is protocol overhead (CatRetransmit), not an ordinary gap
	// or bulk stall.
	retrans bool
}

// procState is one processor's accounting state during the run.
type procState struct {
	cat [NumCategories]sim.Time

	waiting bool
	kind    am.WaitKind
	regions []am.SyncRegion

	segs       []txSeg
	lastInject sim.Time
}

func (ps *procState) charge(c Category, d sim.Time) {
	if d <= 0 {
		return
	}
	ps.cat[c] += d
}

// regionCategory maps the innermost active sync region to its account.
func (ps *procState) regionCategory() (Category, bool) {
	if n := len(ps.regions); n > 0 {
		if ps.regions[n-1] == am.RegionLock {
			return CatLock, true
		}
		return CatBarrier, true
	}
	return CatCompute, false
}

// baseCategory is the account for blocked time not explained by the
// transmit-context backlog: the innermost sync region wins, then the
// wait kind.
func (ps *procState) baseCategory() Category {
	if c, ok := ps.regionCategory(); ok {
		return c
	}
	switch ps.kind {
	case am.WaitWindow:
		return CatWindow
	case am.WaitBulk:
		return CatBulk
	case am.WaitBarrier:
		return CatBarrier
	case am.WaitLock:
		return CatLock
	default: // WaitData, WaitRead, WaitStore: a remote round trip.
		return CatLatency
	}
}

// idle attributes one blocked span [a, b). The span is first matched
// against the transmit-context reservations: gap-limited overlap (up to
// the last injection instant — later gap occupancy delays nobody) is a
// gap stall, DMA-limited overlap is bulk bandwidth, and everything else
// is the wait's base category. Exact: the charges partition [a, b).
func (ps *procState) idle(a, b sim.Time) {
	if b <= a {
		return
	}
	if !ps.waiting {
		// Not a communication wait: a timed sleep (the disk model).
		ps.charge(CatSleep, b-a)
		return
	}
	base := ps.baseCategory()
	cut := ps.lastInject
	if cut > b {
		cut = b
	}
	t := a
	for i := range ps.segs {
		s := ps.segs[i]
		if s.busyEnd <= t {
			continue
		}
		if t >= b {
			break
		}
		if s.inject > t {
			// Hole before this reservation: the NIC was free.
			h := s.inject
			if h > b {
				h = b
			}
			ps.charge(base, h-t)
			t = h
			if t >= b {
				break
			}
		}
		if s.retrans {
			// A retransmission's whole occupancy is protocol overhead —
			// the gap/bulk split and the last-injection cut do not apply.
			e := s.busyEnd
			if e > b {
				e = b
			}
			ps.charge(CatRetransmit, e-t)
			t = e
			if t >= b {
				break
			}
			continue
		}
		if t < s.gapEnd {
			e := s.gapEnd
			if e > b {
				e = b
			}
			if t < cut {
				g := e
				if g > cut {
					g = cut
				}
				ps.charge(CatGap, g-t)
				t = g
			}
			// Gap occupancy after the last injection paces no later send;
			// it falls back to the wait's own account.
			if t < e {
				ps.charge(base, e-t)
				t = e
			}
			if t >= b {
				break
			}
		}
		if t < s.busyEnd {
			e := s.busyEnd
			if e > b {
				e = b
			}
			ps.charge(CatBulk, e-t)
			t = e
		}
	}
	if t < b {
		ps.charge(base, b-t)
	}
	// Reservations ending by b can never overlap a later blocked span
	// (spans arrive in clock order), so drop them.
	n := 0
	for _, s := range ps.segs {
		if s.busyEnd > b {
			ps.segs[n] = s
			n++
		}
	}
	ps.segs = ps.segs[:n]
}

// Profiler implements am.Hooks, accumulating a per-processor time
// breakdown as the run executes.
// Attach with splitc.World.Attach before Run, then call Snapshot after.
// A Profiler observes exactly one run and is not reusable.
type Profiler struct {
	am.NopHooks
	procs []procState
}

var _ am.Hooks = (*Profiler)(nil)

// New returns a profiler for a procs-processor run.
func New(procs int) *Profiler {
	return &Profiler{procs: make([]procState, procs)}
}

// ClockAdvanced implements am.Hooks: idle spans are attributed as they
// happen.
func (pf *Profiler) ClockAdvanced(proc int, kind sim.ClockKind, from, to sim.Time) {
	ps := &pf.procs[proc]
	if kind == sim.ClockStretch {
		// Fault-injected extension of an explicit charge: the base span
		// was named by its own hook; the stretch is fault delay.
		ps.charge(CatFaultDelay, to-from)
		return
	}
	ps.idle(from, to)
}

// ComputeCharged implements am.Hooks. Compute inside a Lock spin is the
// retry loop itself and is charged to lock wait.
func (pf *Profiler) ComputeCharged(proc int, from, to sim.Time) {
	ps := &pf.procs[proc]
	c := CatCompute
	if rc, ok := ps.regionCategory(); ok && rc == CatLock {
		c = CatLock
	}
	ps.charge(c, to-from)
}

// MessageSent implements am.Hooks: the o_send span, and the NIC
// transmit-context occupancy later blocked spans are matched against.
func (pf *Profiler) MessageSent(e am.SendEvent) {
	ps := &pf.procs[e.Src]
	ps.charge(CatOSend, e.OTo-e.OFrom)
	ps.lastInject = e.Inject
	ps.segs = append(ps.segs, txSeg{inject: e.Inject, gapEnd: e.GapFree, busyEnd: e.BusyFree})
}

// RecvOverhead implements am.Hooks.
func (pf *Profiler) RecvOverhead(proc int, from, to sim.Time) {
	pf.procs[proc].charge(CatORecv, to-from)
}

// TxRetransmit implements am.Hooks: a reliability-layer re-injection
// occupies the transmit context like any send, but blocked time it
// explains is charged to the retransmit account.
func (pf *Profiler) TxRetransmit(proc int, inject, gapFree, busyFree sim.Time) {
	ps := &pf.procs[proc]
	ps.lastInject = inject
	ps.segs = append(ps.segs, txSeg{inject: inject, gapEnd: gapFree, busyEnd: busyFree, retrans: true})
}

// WaitBegin implements am.Hooks.
func (pf *Profiler) WaitBegin(proc int, kind am.WaitKind, at sim.Time) {
	ps := &pf.procs[proc]
	if ps.waiting {
		panic("prof: nested WaitBegin")
	}
	ps.waiting = true
	ps.kind = kind
}

// WaitEnd implements am.Hooks.
func (pf *Profiler) WaitEnd(proc int, kind am.WaitKind, at sim.Time) {
	ps := &pf.procs[proc]
	if !ps.waiting {
		panic("prof: WaitEnd without WaitBegin")
	}
	ps.waiting = false
}

// SyncEnter implements am.Hooks.
func (pf *Profiler) SyncEnter(proc int, r am.SyncRegion, at sim.Time) {
	ps := &pf.procs[proc]
	ps.regions = append(ps.regions, r)
}

// SyncExit implements am.Hooks.
func (pf *Profiler) SyncExit(proc int, r am.SyncRegion, at sim.Time) {
	ps := &pf.procs[proc]
	n := len(ps.regions)
	if n == 0 || ps.regions[n-1] != r {
		panic("prof: unbalanced SyncExit")
	}
	ps.regions = ps.regions[:n-1]
}

// Snapshot assembles the Profile of the completed run. Exit skew — the
// interval between a processor's release from the final implied barrier
// and the makespan — is charged to barrier wait, so every processor's
// breakdown sums exactly to the makespan.
func (pf *Profiler) Snapshot(w *splitc.World) *Profile {
	elapsed := w.Elapsed()
	eng := w.Engine()
	out := &Profile{Elapsed: elapsed, Procs: make([]ProcBreakdown, len(pf.procs))}
	for i := range pf.procs {
		ps := &pf.procs[i]
		b := ProcBreakdown{Proc: i, Time: ps.cat}
		if clock := eng.Proc(i).Clock(); elapsed > clock {
			b.Time[CatBarrier] += elapsed - clock
		}
		out.Procs[i] = b
	}
	return out
}

// Attached returns the profiler attached to a world (nil when none).
func Attached(w *splitc.World) *Profiler {
	for _, h := range w.Attached() {
		if pf, ok := h.(*Profiler); ok {
			return pf
		}
	}
	return nil
}
