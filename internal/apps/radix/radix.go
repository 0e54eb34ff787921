// Package radix implements the paper's Radix sort benchmark: a two-pass
// parallel radix sort of 32-bit keys (paper input: 16 million keys),
// following the Split-C implementation analyzed in Dusseau et al., "Fast
// Parallel Sorting Under LogP" (IEEE TPDS 1996).
//
// Each pass has three phases:
//
//  1. Local rank — count the occurrences of each digit locally
//     (computation only).
//  2. Global histogram — ranks are accumulated across processors in a
//     pipelined cyclic shift: processor i forwards, bucket by bucket, the
//     running count of keys with each digit held by processors ≤ i. One
//     short write per bucket per hop; the phase carries a serialization
//     proportional to radix × P, which is exactly the "serialization
//     effect" §5.1 of the paper dissects (Radix's overhead sensitivity
//     grows with P at fixed input).
//  3. Distribution — every key is written directly to its final global
//     position with a pipelined remote store: one short message per key.
//
// The key range is bounded to radix² so two passes fully sort, preserving
// the paper's pass structure at every input scale (the paper's 16M keys
// with a 2^16 radix scale down together).
package radix

import (
	"fmt"
	"math"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/splitc"
)

// Compute-cost constants (simulated 167 MHz UltraSPARC):
const (
	countCostUs = 0.055 // per key: load, extract digit, increment counter
	chainCostUs = 0.040 // per bucket per hop: add and forward
	placeCostUs = 0.085 // per key: compute destination, issue store
)

const paperKeys = 16_000_000

// passes is the pass count: the key range is radix², so two fully sort.
const passes = 2

// App is the Radix benchmark.
type App struct{}

// New returns the benchmark instance.
func New() App { return App{} }

func (App) Name() string      { return "radix" }
func (App) PaperName() string { return "Radix" }
func (App) Description() string {
	return "Integer radix sort"
}

// sizes derives the scaled input: total keys and the radix (digit size)
// chosen to keep the histogram/distribution message ratio of the paper.
func sizes(cfg apps.Config) (n, radix int) {
	n = apps.ScaleInt(paperKeys, cfg.Scale, 64*cfg.Procs)
	// Paper: 16M keys sorted with a 2^16 radix in two passes; keep
	// radix ≈ sqrt(key range) with the same keys-per-proc/radix ratio.
	perProc := n / cfg.Procs
	bits := int(math.Round(math.Log2(float64(perProc) * 65536 / 500000)))
	if bits < 6 {
		bits = 6
	}
	if bits > 16 {
		bits = 16
	}
	radix = 1 << bits
	return n, radix
}

func (a App) InputDesc(cfg apps.Config) string {
	cfg = cfg.Norm()
	n, radix := sizes(cfg)
	return fmt.Sprintf("%d keys in [0,%d), radix %d, %d passes", n, radix*radix, radix, passes)
}

// shared is the cross-processor state of one run: the input size and
// the global structures each processor publishes before the first
// barrier (indexed by processor).
type shared struct {
	n, radix  int
	digitBits uint
	verify    bool

	destArr  []splitc.GPtr // destination key blocks
	chainArr []splitc.GPtr // incoming running counts
	offArr   []splitc.GPtr // global bucket offsets
	flagArr  []splitc.GPtr // offsets-ready flags
	boundArr []splitc.GPtr // first key per proc (verification)
}

// Run executes the benchmark.
func (a App) Run(cfg apps.Config) (apps.Result, error) {
	cfg = cfg.Norm()
	w, err := apps.NewWorld(cfg)
	if err != nil {
		return apps.Result{}, err
	}
	n, radix := sizes(cfg)
	P := cfg.Procs
	sh := &shared{
		n:         n,
		radix:     radix,
		digitBits: uint(math.Ilogb(float64(radix))),
		verify:    cfg.Verify,
		destArr:   make([]splitc.GPtr, P),
		chainArr:  make([]splitc.GPtr, P),
		offArr:    make([]splitc.GPtr, P),
		flagArr:   make([]splitc.GPtr, P),
		boundArr:  make([]splitc.GPtr, P),
	}
	tasks := make([]*task, P)
	if err := w.RunTasks(func(id int) splitc.Task {
		tasks[id] = &task{sh: sh}
		return tasks[id]
	}); err != nil {
		return apps.Result{}, err
	}
	if cfg.Verify {
		for _, k := range tasks {
			if k.failed {
				return apps.Result{}, fmt.Errorf("radix: verification failed (sum=%d count=%d n=%d)", tasks[0].sums[0], tasks[0].sums[1], n)
			}
		}
	}
	res := apps.Finish(a, cfg, w, cfg.Verify)
	for _, name := range w.PhaseNames() {
		res.Extra["phase:"+name] = w.PhaseFraction(name)
	}
	return res, nil
}

// sentinel marks a histogram chain slot its predecessor has not written.
const sentinel = ^uint64(0)

// task is one processor's sort as a state machine. pc names the step the
// processor is in; i, b and q are the key, bucket and processor cursors
// a wait can interrupt, and mid records that the current item's
// once-only work (a count, a chain read, a rank, a bulk put) is done and
// only its send or poll is pending, so a parked primitive re-called with
// the same arguments does not repeat it.
type task struct {
	sh *shared

	pc      int
	pass    int
	i, b, q int
	mid     bool
	dst     splitc.GPtr // the current key's destination slot

	keys                  []uint32
	mine                  int
	shift                 uint
	counts, myStart, rank []uint64
	offs                  []uint64
	localSum              uint64

	// Views of this processor's own global words, taken after its
	// allocations (Alloc appends to the heap).
	chain, totals, flag []uint64
	// chainSet and offsetsSet are the two data waits' conditions, built
	// once per processor.
	chainSet, offsetsSet func() bool

	parked bool // inside awaitData's wait
	failed bool
	sums   [3]uint64 // the verification's global sums
}

func (k *task) Step(t *splitc.TProc) (sim.PollableWait, bool) {
	sh, me, P, radix := k.sh, t.ID(), t.P(), k.sh.radix
	mask := uint32(radix - 1)
	for {
		switch k.pc {
		case 0:
			// Deterministic per-proc key generation, bounded to radix².
			lo, hi := apps.BlockRange(me, sh.n, P)
			k.mine = hi - lo
			k.keys = make([]uint32, k.mine)
			rng := t.Rand()
			keyRange := radix * radix // ≤ 2^32, fits int on 64-bit
			for i := range k.keys {
				k.keys[i] = uint32(rng.Intn(keyRange))
				k.localSum += uint64(k.keys[i])
			}
			sh.destArr[me] = t.Alloc(k.mine)
			sh.chainArr[me] = t.Alloc(radix)
			sh.offArr[me] = t.Alloc(radix)
			sh.flagArr[me] = t.Alloc(1)
			sh.boundArr[me] = t.Alloc(1)
			k.chain = t.Local(sh.chainArr[me], radix)
			k.totals = t.Local(sh.offArr[me], radix) // reused as scratch on P-1
			k.flag = t.Local(sh.flagArr[me], 1)
			k.chainSet = func() bool { return k.chain[k.b] != sentinel }
			k.offsetsSet = func() bool { return k.flag[0] >= uint64(k.pass)+1 }
			k.counts = make([]uint64, radix)
			k.myStart = make([]uint64, radix)
			k.rank = make([]uint64, radix)
			k.pc = 1
		case 1:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.pc = 2
		case 2:
			if k.pass == passes {
				k.pc = 11
				continue
			}
			// Phase 1: local rank.
			k.shift = uint(k.pass) * sh.digitBits
			t.EnterPhase("local-rank")
			clear(k.counts)
			k.pc = 3
		case 3:
			for ; k.i < len(k.keys); k.i++ {
				if !k.mid {
					k.counts[(k.keys[k.i]>>k.shift)&mask]++
				}
				if k.i%4096 == 4095 {
					k.mid = true
					if wt := t.EP().PollT(); wt != nil {
						return wt, false
					}
					k.mid = false
				}
			}
			k.i = 0
			t.ComputeUs(countCostUs * float64(len(k.keys)))

			// Phase 2: global histogram, pipelined cyclic shift.
			t.EnterPhase("histogram")
			for b := range k.chain {
				k.chain[b] = sentinel
			}
			k.pc = 4
		case 4:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			clear(k.myStart)
			k.pc = 5
		case 5:
			if wt := k.histogram(t); wt != nil {
				return wt, false
			}
			// Processor P-1 turns totals into exclusive global offsets
			// and broadcasts them (a rare bulk transfer: Radix is 0.01%
			// bulk).
			if me != P-1 {
				k.pc = 7
				continue
			}
			if k.offs == nil {
				k.offs = make([]uint64, radix)
			}
			var run uint64
			for b := 0; b < radix; b++ {
				tot := k.totals[b]
				k.offs[b] = run
				run += tot
				t.ComputeUs(chainCostUs / 2)
			}
			k.pc = 6
		case 6:
			if wt := k.publishOffsets(t); wt != nil {
				return wt, false
			}
			k.pc = 7
		case 7:
			if P > 1 {
				if wt := k.awaitData(t, k.offsetsSet, "radix: await offsets"); wt != nil {
					return wt, false
				}
			}
			// Phase 3: distribution. Every key goes to its exact global
			// slot: gOff[digit] + (keys with this digit on lower procs) +
			// local running rank.
			t.EnterPhase("distribution")
			clear(k.rank)
			k.pc = 8
		case 8:
			gOff := k.totals // the offsets have landed where the totals were
			for ; k.i < len(k.keys); k.i++ {
				key := k.keys[k.i]
				if !k.mid {
					b := (key >> k.shift) & mask
					pos := int(gOff[b] + k.myStart[b] + k.rank[b])
					k.rank[b]++
					owner := apps.BlockOwner(pos, sh.n, P)
					qlo, _ := apps.BlockRange(owner, sh.n, P)
					k.dst = sh.destArr[owner].Add(pos - qlo)
					k.mid = true
				}
				if wt := t.WriteWordT(k.dst, uint64(key)); wt != nil {
					return wt, false
				}
				k.mid = false
				t.ComputeUs(placeCostUs)
			}
			k.i = 0
			k.pc = 9
		case 9:
			if wt := t.BarrierT(); wt != nil { // implies all stores landed
				return wt, false
			}
			dst := t.Local(sh.destArr[me], k.mine)
			for i := range k.keys {
				k.keys[i] = uint32(dst[i])
			}
			k.pc = 10
		case 10:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.pass++
			k.pc = 2
		case 11:
			t.EnterPhase("wrap-up")
			if !sh.verify {
				return nil, true
			}
			// Sorted within the block, sorted across block boundaries,
			// and key multiset conserved (count + sum).
			for i := 1; i < len(k.keys); i++ {
				if k.keys[i-1] > k.keys[i] {
					k.failed = true
				}
			}
			k.pc = 12
		case 12:
			if k.mine > 0 {
				// +1: distinguish from empty
				if wt := t.WriteWordT(sh.boundArr[me], uint64(k.keys[0])+1); wt != nil {
					return wt, false
				}
			}
			k.pc = 13
		case 13:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.pc = 14
		case 14:
			if k.mine > 0 && me < P-1 {
				nb, wt := t.ReadWordT(sh.boundArr[me+1])
				if wt != nil {
					return wt, false
				}
				if nb != 0 && uint64(k.keys[k.mine-1]) > nb-1 {
					k.failed = true
				}
			}
			var sum uint64
			for _, key := range k.keys {
				sum += uint64(key)
			}
			k.sums = [3]uint64{sum, uint64(k.mine), k.localSum}
			k.pc = 15
		case 15:
			// Each of got sum, got count and want sum, summed across
			// processors in turn.
			for ; k.i < len(k.sums); k.i++ {
				v, wt := t.AllReduceSumT(k.sums[k.i])
				if wt != nil {
					return wt, false
				}
				k.sums[k.i] = v
			}
			if me == 0 && (k.sums[0] != k.sums[2] || k.sums[1] != uint64(sh.n)) {
				k.failed = true
			}
			return nil, true
		}
	}
}

// histogram is one processor's hop of the pipelined cyclic shift:
// processor 0 starts every bucket's running count, each later processor
// waits for its predecessor's count, records it as its own start and
// forwards the sum, and processor P-1 keeps the totals. A nil return
// means every bucket is done.
func (k *task) histogram(t *splitc.TProc) sim.PollableWait {
	sh, me, P := k.sh, t.ID(), t.P()
	for ; k.b < sh.radix; k.b++ {
		b := k.b
		next := k.counts[b]
		if me > 0 {
			if !k.mid {
				if wt := k.awaitData(t, k.chainSet, "radix: histogram chain"); wt != nil {
					return wt
				}
				k.myStart[b] = k.chain[b]
				k.mid = true
			}
			next += k.myStart[b]
		}
		if me < P-1 {
			if wt := t.WriteWordT(sh.chainArr[me+1].Add(b), next); wt != nil {
				return wt
			}
		} else {
			k.totals[b] = next
		}
		k.mid = false
		t.ComputeUs(chainCostUs)
	}
	k.b = 0
	return nil
}

// publishOffsets hands every processor this pass's global offsets and
// raises its ready flag: a local copy for itself, a bulk put and a flag
// write for each other processor. A nil return means all are sent.
func (k *task) publishOffsets(t *splitc.TProc) sim.PollableWait {
	sh, me, P := k.sh, t.ID(), t.P()
	ready := uint64(k.pass) + 1
	for ; k.q < P; k.q++ {
		q := k.q
		if q == me {
			copy(k.totals, k.offs)
			k.flag[0] = ready
			continue
		}
		if !k.mid {
			if wt := t.BulkPutT(sh.offArr[q], k.offs); wt != nil {
				return wt
			}
			k.mid = true
		}
		if wt := t.WriteWordT(sh.flagArr[q], ready); wt != nil {
			return wt
		}
		k.mid = false
	}
	k.q = 0
	return nil
}

// awaitData parks on cond as the blocking Endpoint.WaitUntil does, as an
// am.WaitData span; a nil return means cond held on re-entry.
func (k *task) awaitData(t *splitc.TProc, cond func() bool, reason string) sim.PollableWait {
	ep := t.EP()
	if k.parked {
		k.parked = false
		return nil
	}
	k.parked = true
	return ep.CondWait(am.WaitData, cond, reason)
}

var (
	_ apps.App    = App{}
	_ splitc.Task = (*task)(nil)
)
