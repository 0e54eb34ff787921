package splitc

import (
	"fmt"

	"repro/internal/logp"
	"repro/internal/sim"
)

// This file is the pluggable collective engine: the algorithm registry,
// the auto-tuner, the per-world selection, and the tag-space allocator.
// Each primitive (barrier, broadcast, all-reduce) has several registered
// algorithms, each written once as a resumptive TProc method
// (coll_algos_cont.go) that both drivers run, so a registry row is a
// name, a space requirement, one function, and its LogGP cost model. A
// World resolves its selection once, at construction, from
// Config.Collectives — names, "auto" (the cost models pick), or the zero
// value for the historical defaults.

// CollAuto selects an algorithm via the LogGP auto-tuner (Select),
// evaluated against the world's own (P, L, o, g, G) at construction.
const CollAuto = "auto"

// Collectives names the collective algorithm per primitive. The zero
// value selects the package's historical defaults (dissemination
// barrier, binomial broadcast, reduce-broadcast tree all-reduce), which
// are schedule-identical to the pre-engine fixed algorithms. Valid names
// are the registered ones (BarrierAlgorithms and friends), or CollAuto.
type Collectives struct {
	Barrier   string
	Broadcast string
	AllReduce string
}

// withDefaults fills empty fields with the historical default names.
func (c Collectives) withDefaults() Collectives {
	if c.Barrier == "" {
		c.Barrier = barriers()[0].name
	}
	if c.Broadcast == "" {
		c.Broadcast = broadcasts()[0].name
	}
	if c.AllReduce == "" {
		c.AllReduce = allReduces()[0].name
	}
	return c
}

// IsZero reports whether c is the all-default selection.
func (c Collectives) IsZero() bool { return c == Collectives{} }

// String renders the selection compactly for run keys and progress
// lines ("bar=tree,bc=flat,ar=recdouble"; empty for the zero value).
func (c Collectives) String() string {
	if c.IsZero() {
		return ""
	}
	d := c.withDefaults()
	return fmt.Sprintf("bar=%s,bc=%s,ar=%s", d.Barrier, d.Broadcast, d.AllReduce)
}

// ReduceOp identifies a built-in all-reduce operator. The operator code
// travels in the message for algorithms whose handlers combine on
// arrival, so only operators with identity 0 under uint64 arithmetic are
// representable.
type ReduceOp uint8

const (
	// OpSum adds operands (mod 2^64).
	OpSum ReduceOp = iota
	// OpMax takes the operand maximum.
	OpMax
)

// fn returns the operator's combining function.
func (op ReduceOp) fn() func(a, b uint64) uint64 {
	if op == OpMax {
		return maxOp
	}
	return addOp
}

// reduceApply combines on the receiving processor for the accumulating
// collective handler.
func reduceApply(op ReduceOp, a, b uint64) uint64 { return op.fn()(a, b) }

// ----- registry -----

// An alg is one registry row: an algorithm's name, the per-processor
// space it needs (collective tags, or barrier counter slots), its
// resumptive implementation, and the closed-form LogGP cost of one
// episode at p ≥ 2 processors exchanging bytes-sized operands
// (coll_model.go). The registry is the naming authority: every list,
// lookup and tuner pick reads these rows.
type alg[F any] struct {
	name  string
	space func(p int) int
	runT  F
	cost  func(p, bytes int, m Model) sim.Time
}

type (
	barrierFn   = func(*TProc) sim.PollableWait
	bcastFn     = func(*TProc, int, uint64) (uint64, sim.PollableWait)
	allReduceFn = func(*TProc, uint64, ReduceOp) (uint64, sim.PollableWait)
)

func oneSlot(int) int  { return 1 }
func twoSlots(int) int { return 2 }

// barriers lists the barrier algorithms, default first. The registry
// functions return fresh slices so no package-level mutable state exists.
func barriers() []alg[barrierFn] {
	return []alg[barrierFn]{
		// ⌈log2 P⌉ rounds in which processor i notifies (i+2^r) mod P:
		// every round serializes on one full hop.
		{"dissemination", logRounds, (*TProc).barrierDissemT,
			func(p, _ int, m Model) sim.Time { return sim.Time(logRounds(p)) * m.hop(wordBytes) }},
		// Gather arrivals up a binomial tree, release back down it:
		// 2·⌈log2 P⌉ hops deep, P-1 messages per phase.
		{"tree", twoSlots, (*TProc).barrierTreeT,
			func(p, _ int, m Model) sim.Time { return treeCost(p, wordBytes, m) }},
		// Processor 0 counts all P-1 arrivals on its o_recv, then
		// releases everyone directly: depth 2, root-serialized.
		{"flat", twoSlots, (*TProc).barrierFlatT,
			func(p, _ int, m Model) sim.Time { return flatCost(p, wordBytes, m) }},
	}
}

// broadcasts lists the broadcast algorithms, default first.
func broadcasts() []alg[bcastFn] {
	return []alg[bcastFn]{
		// A binomial tree rooted at the source, ⌈log2 P⌉ rounds.
		{"binomial", logRounds, (*TProc).bcastBinomialT, binomialBcast},
		// Forward along a ring: P-1 sequential hops, the
		// pipelined-segmented shape for large messages.
		{"chain", oneSlot, (*TProc).bcastChainT,
			func(p, bytes int, m Model) sim.Time { return sim.Time(p-1) * m.hop(bytes) }},
		// The root sends to everyone directly: depth 1, serialized on
		// the root's max(g, o_send).
		{"flat", oneSlot, (*TProc).bcastFlatT, flatBcast},
	}
}

// allReduces lists the all-reduce algorithms, default first.
func allReduces() []alg[allReduceFn] {
	return []alg[allReduceFn]{
		// Binomial reduce to processor 0, then a binomial broadcast.
		{"tree", func(p int) int { return 2 * logRounds(p) }, (*TProc).allReduceTreeT, treeCost},
		// Recursive doubling (the butterfly): ⌊log2 P⌋ pairwise exchange
		// rounds, plus a fold/unfold step when P is not a power of two.
		{"recdouble", func(p int) int { return logRounds(p) + 2 }, (*TProc).allReduceRecDoubleT, recDoubleCost},
		// Gather every operand on processor 0, broadcast the result
		// directly: depth 2, root-serialized.
		{"flat", twoSlots, (*TProc).allReduceFlatT, flatCost},
	}
}

// names lists a registry's algorithm names, default first.
func names[F any](algs []alg[F]) []string {
	ns := make([]string, len(algs))
	for i, a := range algs {
		ns[i] = a.name
	}
	return ns
}

// find returns the row named name; prim names the primitive in the error.
func find[F any](algs []alg[F], prim, name string) (alg[F], error) {
	for _, a := range algs {
		if a.name == name {
			return a, nil
		}
	}
	return alg[F]{}, fmt.Errorf("splitc: unknown %s algorithm %q (have %v)", prim, name, names(algs))
}

// episode is the row's modelled cost of one episode; one processor
// communicates nothing.
func (a alg[F]) episode(p, bytes int, m Model) sim.Time {
	if p <= 1 {
		return 0
	}
	return a.cost(p, bytes, m)
}

// cheapest is the tuner's argmin over a registry. Ties go to the
// first-listed (default) algorithm, so the tuner never trades the proven
// default for an equal-cost alternative.
func cheapest[F any](algs []alg[F], p, bytes int, m Model) string {
	best, bestC := algs[0].name, algs[0].episode(p, bytes, m)
	for _, a := range algs[1:] {
		if c := a.episode(p, bytes, m); c < bestC {
			best, bestC = a.name, c
		}
	}
	return best
}

// costOf is the named row's episode cost, for the exported cost models.
func costOf[F any](algs []alg[F], prim, name string, p, bytes int, m Model) (sim.Time, error) {
	a, err := find(algs, prim, name)
	if err != nil {
		return 0, err
	}
	if p < 1 {
		return 0, fmt.Errorf("splitc: %s cost needs p ≥ 1, got %d", prim, p)
	}
	return a.episode(p, bytes, m), nil
}

// BarrierAlgorithms lists the registered barrier algorithm names,
// default first.
func BarrierAlgorithms() []string { return names(barriers()) }

// BroadcastAlgorithms lists the registered broadcast algorithm names,
// default first.
func BroadcastAlgorithms() []string { return names(broadcasts()) }

// AllReduceAlgorithms lists the registered all-reduce algorithm names,
// default first.
func AllReduceAlgorithms() []string { return names(allReduces()) }

// BarrierCost models one barrier episode under the named algorithm
// (store-sync excluded: the models compare synchronization schedules,
// not the caller's outstanding stores).
func BarrierCost(alg string, p int, m Model) (sim.Time, error) {
	return costOf(barriers(), "barrier", alg, p, wordBytes, m)
}

// BroadcastCost models one broadcast episode of a bytes-sized payload.
func BroadcastCost(alg string, p, bytes int, m Model) (sim.Time, error) {
	return costOf(broadcasts(), "broadcast", alg, p, bytes, m)
}

// AllReduceCost models one all-reduce episode of bytes-sized operands.
func AllReduceCost(alg string, p, bytes int, m Model) (sim.Time, error) {
	return costOf(allReduces(), "all-reduce", alg, p, bytes, m)
}

// Select is the auto-tuner: the model-minimal algorithm per primitive
// for a p-processor machine exchanging bytes-sized operands — the
// program of the two Barchet-Estefanel papers ("Performance
// Characterisation of Intra-Cluster Collective Communications", "Fast
// Tuning of Intra-Cluster Collective Communications") applied to this
// simulator's primitives.
func Select(p, bytes int, params logp.Params) Collectives {
	m := ModelOf(params)
	return Collectives{
		Barrier:   cheapest(barriers(), p, bytes, m),
		Broadcast: cheapest(broadcasts(), p, bytes, m),
		AllReduce: cheapest(allReduces(), p, bytes, m),
	}
}

// ----- selection -----

// tagSpace allocates disjoint AM tag blocks so algorithms cannot
// collide.
type tagSpace struct{ next int }

func (ts *tagSpace) grab(n int) int {
	base := ts.next
	ts.next += n
	return base
}

// collSel is a world's resolved collective selection: the three chosen
// algorithms plus the tag-space layout they (and the standalone
// scan/gather/all-to-all collectives) were allocated.
type collSel struct {
	names   Collectives // resolved concrete names (never "" or "auto")
	barrier alg[barrierFn]
	bcast   alg[bcastFn]
	ar      alg[allReduceFn]

	arBase     int // the all-reduce algorithm's tag block
	bcastBase  int // the broadcast algorithm's tag block
	scanBase   int // ⌈log2 P⌉ Hillis-Steele scan rounds
	gatherBase int // one gather tag
	a2aBase    int // one all-to-all tag

	numTags  int // total allocated tags (sizes the TProc operand cells)
	barSlots int // barrier counter slots per processor
}

// resolveCollectives validates c for a p-processor world on the given
// machine, resolving "auto" fields through the tuner, and lays out the
// tag space. The default selection reproduces the historical fixed
// layout exactly (reduce rounds, then all-reduce broadcast rounds, then
// broadcast rounds, then scan rounds, then gather and all-to-all).
func resolveCollectives(c Collectives, p int, params logp.Params) (collSel, error) {
	c = c.withDefaults()
	if c.Barrier == CollAuto || c.Broadcast == CollAuto || c.AllReduce == CollAuto {
		pick := Select(p, wordBytes, params)
		if c.Barrier == CollAuto {
			c.Barrier = pick.Barrier
		}
		if c.Broadcast == CollAuto {
			c.Broadcast = pick.Broadcast
		}
		if c.AllReduce == CollAuto {
			c.AllReduce = pick.AllReduce
		}
	}
	s, err := c.lookup()
	if err != nil {
		return collSel{}, err
	}
	var ts tagSpace
	s.arBase = ts.grab(s.ar.space(p))
	s.bcastBase = ts.grab(s.bcast.space(p))
	s.scanBase = ts.grab(logRounds(p))
	s.gatherBase = ts.grab(1)
	s.a2aBase = ts.grab(1)
	s.numTags = ts.next
	s.barSlots = s.barrier.space(p)
	return s, nil
}

// Validate reports a name no registry holds ("" and CollAuto always
// resolve). It needs no world, so a caller can refuse a selection before
// queueing a run that would build one.
func (c Collectives) Validate() error {
	for _, f := range []*string{&c.Barrier, &c.Broadcast, &c.AllReduce} {
		if *f == CollAuto {
			*f = ""
		}
	}
	_, err := c.withDefaults().lookup()
	return err
}

// lookup finds the registered algorithm for each of c's names; c has no
// "" or CollAuto field left.
func (c Collectives) lookup() (s collSel, err error) {
	s.names = c
	if s.barrier, err = find(barriers(), "barrier", c.Barrier); err != nil {
		return collSel{}, err
	}
	if s.bcast, err = find(broadcasts(), "broadcast", c.Broadcast); err != nil {
		return collSel{}, err
	}
	if s.ar, err = find(allReduces(), "all-reduce", c.AllReduce); err != nil {
		return collSel{}, err
	}
	return s, nil
}

// The tag accessors: reduceTag and arBcastTag address the tree
// all-reduce's two sub-blocks (reduce rounds, then its broadcast rounds);
// scan, gather and all-to-all own the blocks after the selected
// algorithms'.
func (w *World) reduceTag(r int) int  { return w.sel.arBase + r }
func (w *World) arBcastTag(r int) int { return w.sel.arBase + logRounds(w.P()) + r }
func (w *World) scanTag(r int) int    { return w.sel.scanBase + r }
func (w *World) gatherTag() int       { return w.sel.gatherBase }
func (w *World) allToAllTag() int     { return w.sel.a2aBase }

// CollectiveNames returns the world's resolved algorithm selection
// (after defaulting and auto-tuning).
func (w *World) CollectiveNames() Collectives { return w.sel.names }
