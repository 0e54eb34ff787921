// Package sample implements the paper's Sample sort benchmark: a
// probabilistic sort of 32-bit keys (paper input: 32 million). Each
// processor contributes a random sample; p−1 "good" splitter values are
// selected from the sorted sample and broadcast; every key is then sent to
// the processor owning its splitter interval with one short write message;
// finally each processor radix-sorts what it received.
//
// The interesting architectural property (Figure 4d's vertical bars) is
// the potential imbalance of the all-to-all: splitters estimated from a
// finite sample give some processors more keys than others. The key
// distribution is a mixture of uniform background and a few dense
// clusters, so the imbalance is visible as in the paper.
package sample

import (
	"fmt"
	"sort"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/splitc"
)

// Compute-cost constants (simulated 167 MHz UltraSPARC).
const (
	partitionCostUs = 0.18 // per key: binary-search splitters, issue send
	localSortCostUs = 0.25 // per received key: local radix sort share
	sampleCostUs    = 0.30 // per sample key
)

const (
	paperKeys    = 32_000_000
	oversampling = 8 // samples per processor per splitter interval
)

// App is the Sample sort benchmark.
type App struct{}

// New returns the benchmark instance.
func New() App { return App{} }

func (App) Name() string        { return "sample" }
func (App) PaperName() string   { return "Sample" }
func (App) Description() string { return "Integer sample sort" }

func keyCount(cfg apps.Config) int {
	return apps.ScaleInt(paperKeys, cfg.Scale, 128*cfg.Procs)
}

func (a App) InputDesc(cfg apps.Config) string {
	cfg = cfg.Norm()
	return fmt.Sprintf("%d 32-bit keys, oversampling %d", keyCount(cfg), oversampling)
}

// genKey draws from the skewed mixture: 70% uniform, 30% from one of four
// narrow clusters.
func genKey(rng interface{ Intn(int) int }) uint32 {
	if rng.Intn(10) < 7 {
		return uint32(rng.Intn(1 << 30))
	}
	cluster := uint32(rng.Intn(4))
	base := cluster * (1 << 28)
	return base + uint32(rng.Intn(1<<22))
}

// shared is the cross-processor state of one run: the input size, proc
// 0's sample landing area, the per-processor receive buffers and
// boundary words, and the one key-delivery handler every send names.
type shared struct {
	n, nSamples int
	verify      bool

	samples  splitc.GPtr   // proc 0's sample array
	recvBufs [][]uint32    // keys received per proc
	firstKey []splitc.GPtr // boundary check (verification)
	deliver  am.Handler    // appends a key to the receiver's buffer
}

// Run executes the benchmark.
func (a App) Run(cfg apps.Config) (apps.Result, error) {
	cfg = cfg.Norm()
	w, err := apps.NewWorld(cfg)
	if err != nil {
		return apps.Result{}, err
	}
	P := cfg.Procs
	sh := &shared{
		n:        keyCount(cfg),
		nSamples: max(oversampling*(P-1), 1),
		verify:   cfg.Verify,
		recvBufs: make([][]uint32, P),
		firstKey: make([]splitc.GPtr, P),
	}
	sh.deliver = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		sh.recvBufs[ep.ID()] = append(sh.recvBufs[ep.ID()], uint32(a[0]))
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
				return apps.Result{}, fmt.Errorf("sample: verification failed")
			}
		}
	}
	return apps.Finish(a, cfg, w, cfg.Verify), nil
}

// task is one processor's sort as a state machine. pc names the step the
// processor is in; i and q are the item and processor cursors a wait can
// interrupt. sub tracks the current item of a sampling or distribution
// loop: 0 before its once-only work (a sample's draw, a key's partition
// charge), 1 with its send pending, 2 with its poll pending, so a parked
// primitive re-called with the same arguments does not repeat that work.
type task struct {
	sh *shared

	pc, sub int
	i, q    int
	dst     int    // the current key's destination
	key     uint32 // the current sample

	keys      []uint32
	splitters []uint32
	got       []uint32 // the keys received, sorted
	localSum  uint64
	sums      [3]uint64 // the verification's global sums

	failed bool
}

func (k *task) Step(t *splitc.TProc) (sim.PollableWait, bool) {
	sh, me, P := k.sh, t.ID(), t.P()
	for {
		switch k.pc {
		case 0:
			lo, hi := apps.BlockRange(me, sh.n, P)
			mine := hi - lo
			rng := t.Rand()
			k.keys = make([]uint32, mine)
			for i := range k.keys {
				k.keys[i] = genKey(rng)
				k.localSum += uint64(k.keys[i])
			}
			sh.recvBufs[me] = make([]uint32, 0, mine*2)
			sh.firstKey[me] = t.Alloc(1)
			if me == 0 {
				sh.samples = t.Alloc(sh.nSamples * P)
			}
			k.pc = 1
		case 1:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.pc = 2
		case 2:
			// Phase 1: sampling. Every processor writes its samples into
			// processor 0's sample array (short writes), then processor
			// 0 sorts them and broadcasts p−1 splitters.
			for ; k.i < sh.nSamples; k.i++ {
				if k.sub == 0 {
					k.key = k.keys[t.Rand().Intn(len(k.keys))]
					k.sub = 1
				}
				if wt := t.WriteWordT(sh.samples.Add(me*sh.nSamples+k.i), uint64(k.key)); wt != nil {
					return wt, false
				}
				k.sub = 0
				t.ComputeUs(sampleCostUs)
			}
			k.i = 0
			k.pc = 3
		case 3:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.splitters = make([]uint32, P-1)
			if me == 0 {
				all := t.Local(sh.samples, sh.nSamples*P)
				samples := make([]uint32, len(all))
				for i, v := range all {
					samples[i] = uint32(v)
				}
				sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
				t.ComputeUs(sampleCostUs * float64(len(samples)) * 2) // sort cost
				for i := range k.splitters {
					k.splitters[i] = samples[(i+1)*len(samples)/P]
				}
			}
			k.pc = 4
		case 4:
			for ; k.i < len(k.splitters); k.i++ {
				v, wt := t.BroadcastT(0, uint64(k.splitters[k.i]))
				if wt != nil {
					return wt, false
				}
				k.splitters[k.i] = uint32(v)
			}
			k.i = 0
			k.pc = 5
		case 5:
			if wt := k.distribute(t); wt != nil {
				return wt, false
			}
			k.pc = 6
		case 6:
			if wt := t.BarrierT(); wt != nil { // store-sync implies delivery
				return wt, false
			}
			// Phase 3: local radix sort of received keys.
			k.got = sh.recvBufs[me]
			sort.Slice(k.got, func(i, j int) bool { return k.got[i] < k.got[j] })
			t.ComputeUs(localSortCostUs * float64(len(k.got)))
			k.pc = 7
		case 7:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			if !sh.verify {
				return nil, true
			}
			for i := 1; i < len(k.got); i++ {
				if k.got[i-1] > k.got[i] {
					k.failed = true
				}
			}
			if len(k.got) > 0 {
				// Local: never waits.
				if wt := t.WriteWordT(sh.firstKey[me], uint64(k.got[0])+1); wt != nil {
					return wt, false
				}
			}
			k.pc = 8
		case 8:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.q = me + 1
			k.pc = 9
		case 9:
			// Boundary order: my last key ≤ the next non-empty proc's
			// first.
			for ; len(k.got) > 0 && k.q < P; k.q++ {
				nb, wt := t.ReadWordT(sh.firstKey[k.q])
				if wt != nil {
					return wt, false
				}
				if nb == 0 {
					continue // empty processor
				}
				if uint64(k.got[len(k.got)-1]) > nb-1 {
					k.failed = true
				}
				break
			}
			var sum uint64
			for _, key := range k.got {
				sum += uint64(key)
			}
			k.sums = [3]uint64{sum, k.localSum, uint64(len(k.got))}
			k.pc = 10
		case 10:
			// Each of got sum, want sum and got count, summed across
			// processors in turn.
			for ; k.i < len(k.sums); k.i++ {
				v, wt := t.AllReduceSumT(k.sums[k.i])
				if wt != nil {
					return wt, false
				}
				k.sums[k.i] = v
			}
			if k.sums[0] != k.sums[1] || k.sums[2] != uint64(sh.n) {
				k.failed = true
			}
			return nil, true
		}
	}
}

// distribute is Phase 2: one short active message per key to the
// processor owning its splitter interval, whose handler appends it to
// its receive buffer — an unbalanced all-to-all when the splitters
// misjudge the density. A nil return means every key is sent.
func (k *task) distribute(t *splitc.TProc) sim.PollableWait {
	sh, me := k.sh, t.ID()
	for ; k.i < len(k.keys); k.i++ {
		key := k.keys[k.i]
		if k.sub == 0 {
			k.dst = sort.Search(len(k.splitters), func(j int) bool { return k.splitters[j] > key })
			t.ComputeUs(partitionCostUs)
			if k.dst == me {
				sh.recvBufs[me] = append(sh.recvBufs[me], key)
				continue
			}
			k.sub = 1
		}
		if k.sub == 1 {
			if wt := t.EP().RequestT(k.dst, am.ClassWrite, sh.deliver, am.Args{uint64(key)}); wt != nil {
				return wt
			}
			k.sub = 2
		}
		if k.i%2048 == 2047 {
			if wt := t.EP().PollT(); wt != nil {
				return wt
			}
		}
		k.sub = 0
	}
	k.i = 0
	return nil
}

var (
	_ apps.App    = App{}
	_ splitc.Task = (*task)(nil)
)
