// Package splitc provides the SPMD programming layer the paper's
// applications are written in: a Split-C-like global address space over
// Active Messages, with blocking reads, pipelined counted writes, bulk
// transfers, barriers, collectives, and simple global locks.
//
// The communication footprint of each primitive mirrors Split-C on GAM:
//
//   - ReadWord     — short request + short reply (round trip; ClassRead)
//   - WriteWord    — one short request; the firmware ack completes the
//     store counter (ClassWrite)
//   - BulkGet      — short request + bulk reply per ≤4 KB fragment
//   - BulkPut      — one bulk fragment per ≤4 KB (ClassWrite)
//   - Barrier      — store-sync, then the world's selected barrier
//     algorithm (a ⌈log2 P⌉-round dissemination barrier by default)
//   - Lock/Unlock  — round-trip test-and-set / one-way clear
//   - FetchAdd     — round trip (ClassSync)
//
// Local accesses touch memory directly and cost no virtual time; the
// applications charge their computation explicitly.
package splitc

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/logp"
	"repro/internal/sim"
)

// World is a P-processor global address space over one am.Machine.
type World struct {
	eng *sim.Engine
	m   *am.Machine

	// mem is the per-processor global heap, addressed in 64-bit words.
	mem [][]uint64

	// barrier state, one per processor (handlers run on the owner).
	barrier []barrierState

	// sel is the resolved collective selection and tag-space layout
	// (see coll.go), fixed at construction.
	sel collSel

	// phases accumulates per-label processor time (see phase.go).
	phases phaseAccount

	// Primitive state (see cont.go): tp holds each processor's TProc for
	// the duration of a run, on either driver, so handlers can reach the
	// receiving processor's op and operand cells; the h* fields are the
	// per-world handler set, created once so the steady-state send paths
	// allocate no closures.
	tp          []*TProc
	hWrite      am.Handler
	hBarrier    am.Handler
	hColl       am.Handler
	hCollAcc    am.Handler
	hReply      am.Handler
	hReadReq    am.Handler
	hFetchAdd   am.Handler
	hCAS        am.Handler
	hBulkGetReq am.Handler
	hBulkPut    am.BulkHandler
	hBulkGetRep am.BulkHandler

	// attached holds every hook set attached via Attach, in order: the
	// machine's consumer list.
	attached []am.Hooks

	elapsed sim.Time
}

type barrierState struct {
	// recvCount[r] counts round-r notifications ever received; cumulative
	// counters make the dissemination barrier robust to epoch skew.
	recvCount []int64
	episodes  int64
}

// Config collects every World construction knob. The zero value of each
// field is a valid default (but Procs and Params must be set).
type Config struct {
	// Procs is the processor count.
	Procs int
	// Params is the LogGP machine.
	Params logp.Params
	// Seed seeds the per-processor PRNGs.
	Seed int64
	// TimeLimit bounds virtual time; runs exceeding it fail with
	// sim.ErrTimeLimit. Zero means unlimited.
	TimeLimit sim.Time
	// Collectives selects the collective algorithms (see the Collectives
	// type); the zero value keeps the historical defaults.
	Collectives Collectives
}

// NewWorld builds a world with p processors and the given network.
func NewWorld(p int, params logp.Params, seed int64) (*World, error) {
	return NewWorldCfg(Config{Procs: p, Params: params, Seed: seed})
}

// NewWorldCfg builds a world from a full Config, resolving the
// collective selection (including "auto" fields, tuned against cfg's own
// machine) before the first processor runs.
func NewWorldCfg(cfg Config) (*World, error) {
	sel, err := resolveCollectives(cfg.Collectives, cfg.Procs, cfg.Params)
	if err != nil {
		return nil, err
	}
	eng := sim.New(sim.Config{Procs: cfg.Procs, Seed: cfg.Seed, TimeLimit: cfg.TimeLimit})
	m, err := am.NewMachine(eng, cfg.Params)
	if err != nil {
		return nil, err
	}
	w := &World{eng: eng, m: m, sel: sel}
	w.mem = make([][]uint64, cfg.Procs)
	w.barrier = make([]barrierState, cfg.Procs)
	return w, nil
}

// barrierOf returns processor id's barrier state, allocating the slots
// the selected barrier algorithm needs on first touch. Lazy so that a
// million-processor world pays for synchronization state only on
// processors that synchronize; the allocation happens outside virtual
// time, so laziness cannot perturb a schedule.
func (w *World) barrierOf(id int) *barrierState {
	bs := &w.barrier[id]
	if bs.recvCount == nil {
		bs.recvCount = make([]int64, w.sel.barSlots)
	}
	return bs
}

// logRounds returns ⌈log2 p⌉ (and ≥1 so P=1 still has state).
func logRounds(p int) int {
	r := 0
	for 1<<r < p {
		r++
	}
	if r == 0 {
		r = 1
	}
	return r
}

// highestBit returns the index of v's most significant set bit (-1 for 0).
func highestBit(v int) int {
	j := -1
	for v != 0 {
		v >>= 1
		j++
	}
	return j
}

// Attach appends instrumentation to the machine's consumer list: each
// hook set receives every message event, time charge, idle clock advance
// and barrier/lock region event (am.Hooks), each once, after the sets
// attached before it. nil entries are skipped. Call it before Run, and
// call it once per hook set (repeated calls accumulate).
func (w *World) Attach(hooks ...am.Hooks) {
	for _, h := range hooks {
		if h != nil {
			w.attached = append(w.attached, h)
		}
	}
	w.m.SetHooks(w.attached...)
}

// Attached returns the hook sets attached so far, in attach order.
func (w *World) Attached() []am.Hooks {
	out := make([]am.Hooks, len(w.attached))
	copy(out, w.attached)
	return out
}

// Engine exposes the underlying simulation engine.
func (w *World) Engine() *sim.Engine { return w.eng }

// Machine exposes the underlying Active Message machine.
func (w *World) Machine() *am.Machine { return w.m }

// Stats exposes the communication instrumentation.
func (w *World) Stats() *am.Stats { return w.m.Stats() }

// P returns the processor count.
func (w *World) P() int { return w.eng.P() }

// Elapsed returns the virtual makespan of the last Run.
func (w *World) Elapsed() sim.Time { return w.elapsed }

// Run executes body on every processor SPMD-style, each on its own
// stack. A final barrier is implied so that all in-flight
// communication quiesces before any processor's body is considered
// complete.
func (w *World) Run(body func(p *Proc)) error {
	w.initHandlers()
	w.tp = make([]*TProc, w.P())
	err := w.eng.Run(func(sp *sim.Proc) {
		p := &Proc{TProc: TProc{w: w, ep: w.m.Endpoint(sp.ID()), sp: sp}}
		w.tp[sp.ID()] = &p.TProc
		body(p)
		p.Barrier()
		p.closePhase()
	})
	w.elapsed = w.eng.MaxClock()
	return err
}

// Proc is one processor's blocking view of the world, passed to SPMD
// bodies under Run. It is a TProc — the same identity, memory and
// primitive state a Task sees under RunTasks — plus the drive loop: every
// blocking method hands its resumptive "…T" form to wait. The primitives
// therefore exist once (cont.go), and what a blocking call charges is by
// construction what the continuation form charges; the engine schedules
// the waits of both through one loop.
type Proc struct {
	TProc
}

// wait is the drive loop of every blocking method: it calls step until
// that returns a nil wait, suspending the body on each wait in between
// (sim.Proc.Await). A method that returns a value captures it from the
// step in a local; step does not escape, so the closure stays on the
// caller's stack and the drive allocates nothing.
func (p *Proc) wait(step func() sim.PollableWait) {
	for wt := step(); wt != nil; wt = step() {
		p.sp.Await(wt)
	}
}

// Poll services any arrived messages (handlers run, o_recv is charged).
// Long local compute loops should poll periodically, as real Split-C
// programs do implicitly at communication points.
func (p *Proc) Poll() { p.ep.Poll() }

// GPtr is a global pointer: a (processor, word-offset) pair into the
// global heap. The zero GPtr is a valid pointer to word 0 of processor 0's
// heap; use Nil-style sentinels at the application level if needed.
type GPtr struct {
	Proc int32
	Off  int32
}

// Pack encodes g into one message word.
func (g GPtr) Pack() uint64 { return uint64(uint32(g.Proc))<<32 | uint64(uint32(g.Off)) }

// UnpackGPtr reverses GPtr.Pack.
func UnpackGPtr(w uint64) GPtr {
	return GPtr{Proc: int32(w >> 32), Off: int32(uint32(w))}
}

// Add returns g advanced by n words.
func (g GPtr) Add(n int) GPtr { return GPtr{Proc: g.Proc, Off: g.Off + int32(n)} }

func (g GPtr) String() string { return fmt.Sprintf("g[%d:%d]", g.Proc, g.Off) }

func (w *World) word(g GPtr) *uint64 { return &w.mem[g.Proc][g.Off] }
