package splitc

import (
	"fmt"

	"repro/internal/logp"
	"repro/internal/sim"
	"repro/internal/splitc/tune"
)

// This file is the pluggable collective engine: the algorithm registry,
// the per-world selection, and the tag-space allocator. Each primitive
// (barrier, broadcast, all-reduce) has several registered algorithms,
// each written once as a resumptive TProc method (coll_algos_cont.go)
// that both drivers run, so a registry row is a name, a space
// requirement, and one function. A World resolves its selection once, at
// construction, from Config.Collectives — names, "auto" (the tune
// package's LogGP cost models pick), or the zero value for the historical
// defaults.

// CollAuto selects an algorithm via the LogGP auto-tuner in
// internal/splitc/tune, evaluated against the world's own (P, L, o, g,
// G) at construction.
const CollAuto = "auto"

// Collectives names the collective algorithm per primitive. The zero
// value selects the package's historical defaults (dissemination
// barrier, binomial broadcast, reduce-broadcast tree all-reduce), which
// are schedule-identical to the pre-engine fixed algorithms. Valid names
// are the tune package constants, or CollAuto.
type Collectives struct {
	Barrier   string
	Broadcast string
	AllReduce string
}

// withDefaults fills empty fields with the historical default names.
func (c Collectives) withDefaults() Collectives {
	if c.Barrier == "" {
		c.Barrier = tune.BarrierDissemination
	}
	if c.Broadcast == "" {
		c.Broadcast = tune.BcastBinomial
	}
	if c.AllReduce == "" {
		c.AllReduce = tune.AllReduceTree
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

// barrierAlg is one registered barrier algorithm and the per-processor
// counter slots it needs.
type barrierAlg struct {
	name  string
	slots func(p int) int
	runT  func(*TProc) sim.PollableWait
}

// bcastAlg is one registered broadcast algorithm and the tag block it
// needs.
type bcastAlg struct {
	name string
	tags func(p int) int
	runT func(*TProc, int, uint64) (uint64, sim.PollableWait)
}

// arAlg is one registered all-reduce algorithm and the tag block it
// needs.
type arAlg struct {
	name string
	tags func(p int) int
	runT func(*TProc, uint64, ReduceOp) (uint64, sim.PollableWait)
}

func twoSlots(int) int { return 2 }

// barrierRegistry lists the barrier algorithms, default first. Returned
// fresh so no package-level mutable state exists.
func barrierRegistry() []barrierAlg {
	return []barrierAlg{
		{name: tune.BarrierDissemination, slots: logRounds, runT: (*TProc).barrierDissemT},
		{name: tune.BarrierTree, slots: twoSlots, runT: (*TProc).barrierTreeT},
		{name: tune.BarrierFlat, slots: twoSlots, runT: (*TProc).barrierFlatT},
	}
}

// bcastRegistry lists the broadcast algorithms, default first.
func bcastRegistry() []bcastAlg {
	one := func(int) int { return 1 }
	return []bcastAlg{
		{name: tune.BcastBinomial, tags: logRounds, runT: (*TProc).bcastBinomialT},
		{name: tune.BcastChain, tags: one, runT: (*TProc).bcastChainT},
		{name: tune.BcastFlat, tags: one, runT: (*TProc).bcastFlatT},
	}
}

// arRegistry lists the all-reduce algorithms, default first.
func arRegistry() []arAlg {
	return []arAlg{
		{name: tune.AllReduceTree, tags: func(p int) int { return 2 * logRounds(p) }, runT: (*TProc).allReduceTreeT},
		{name: tune.AllReduceRecDouble, tags: func(p int) int { return logRounds(p) + 2 }, runT: (*TProc).allReduceRecDoubleT},
		{name: tune.AllReduceFlat, tags: twoSlots, runT: (*TProc).allReduceFlatT},
	}
}

// BarrierAlgorithms lists the registered barrier algorithm names,
// default first.
func BarrierAlgorithms() []string {
	var ns []string
	for _, a := range barrierRegistry() {
		ns = append(ns, a.name)
	}
	return ns
}

// BroadcastAlgorithms lists the registered broadcast algorithm names,
// default first.
func BroadcastAlgorithms() []string {
	var ns []string
	for _, a := range bcastRegistry() {
		ns = append(ns, a.name)
	}
	return ns
}

// AllReduceAlgorithms lists the registered all-reduce algorithm names,
// default first.
func AllReduceAlgorithms() []string {
	var ns []string
	for _, a := range arRegistry() {
		ns = append(ns, a.name)
	}
	return ns
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
	barrier barrierAlg
	bcast   bcastAlg
	ar      arAlg

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
		pick := tune.Select(p, 8, params)
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
	s.arBase = ts.grab(s.ar.tags(p))
	s.bcastBase = ts.grab(s.bcast.tags(p))
	s.scanBase = ts.grab(logRounds(p))
	s.gatherBase = ts.grab(1)
	s.a2aBase = ts.grab(1)
	s.numTags = ts.next
	s.barSlots = s.barrier.slots(p)
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
func (c Collectives) lookup() (collSel, error) {
	s := collSel{names: c}
	found := false
	for _, a := range barrierRegistry() {
		if a.name == c.Barrier {
			s.barrier, found = a, true
			break
		}
	}
	if !found {
		return collSel{}, fmt.Errorf("splitc: unknown barrier algorithm %q (have %v)", c.Barrier, BarrierAlgorithms())
	}
	found = false
	for _, a := range bcastRegistry() {
		if a.name == c.Broadcast {
			s.bcast, found = a, true
			break
		}
	}
	if !found {
		return collSel{}, fmt.Errorf("splitc: unknown broadcast algorithm %q (have %v)", c.Broadcast, BroadcastAlgorithms())
	}
	found = false
	for _, a := range arRegistry() {
		if a.name == c.AllReduce {
			s.ar, found = a, true
			break
		}
	}
	if !found {
		return collSel{}, fmt.Errorf("splitc: unknown all-reduce algorithm %q (have %v)", c.AllReduce, AllReduceAlgorithms())
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
