// scale-radix: the barrier-synchronized kernel. One digit pass of a
// parallel counting sort — per-processor histogram, cross-processor
// prefix scans (ScanAdd + Broadcast per bucket), then a permute of every
// key to its globally ranked slot with pipelined writes, fenced by
// barriers. This is the communication skeleton of the paper's Radix sort
// at weak scale: per-processor key count fixed, synchronization depth
// growing as log P.
package scalekern

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/splitc"
)

const (
	// radixBuckets is the bucket count of the single digit pass (1-bit
	// digit): enough to exercise the scan/permute structure while keeping
	// the collective count — the log P cost driver at P = 1M — low.
	radixBuckets = 2

	radixPaperKeys   = 4096 // per-processor keys at Scale = 1
	radixHistCostUs  = 0.05 // per key: extract digit, bump counter
	radixPermCostUs  = 0.15 // per key: compute rank, issue send
	radixCheckCostUs = 0.02 // per key: verification scan share
)

// Radix is the scale-radix kernel.
type Radix struct{}

func (Radix) Name() string        { return "scale-radix" }
func (Radix) PaperName() string   { return "Radix (scale)" }
func (Radix) Description() string { return "Weak-scaling counting-sort digit pass" }

func radixKeys(cfg apps.Config) int {
	return apps.ScaleInt(radixPaperKeys, cfg.Scale, 16)
}

func (a Radix) InputDesc(cfg apps.Config) string {
	cfg = cfg.Norm()
	return fmt.Sprintf("%d keys/proc, %d buckets, %d total keys",
		radixKeys(cfg), radixBuckets, radixKeys(cfg)*cfg.Procs)
}

// radixKeyAt is the deterministic input: key i of processor me.
func radixKeyAt(seed int64, me, i, k int) uint64 {
	return splitmix64(uint64(seed)*0x9E3779B97F4A7C15^(uint64(me)*uint64(k)+uint64(i)+1)) & 0xFFFF
}

// radixShared is the cross-processor state of one run. dest is written
// by each processor before the first barrier and read only after it;
// failed likewise is written per-processor and read after the run.
type radixShared struct {
	k      int
	seed   int64
	dest   []splitc.GPtr
	failed []bool
}

// Run executes the kernel.
func (a Radix) Run(cfg apps.Config) (apps.Result, error) {
	cfg = cfg.Norm()
	w, err := apps.NewWorld(cfg)
	if err != nil {
		return apps.Result{}, err
	}
	sh := &radixShared{
		k:      radixKeys(cfg),
		seed:   cfg.Seed,
		dest:   make([]splitc.GPtr, cfg.Procs),
		failed: make([]bool, cfg.Procs),
	}
	if err := w.RunTasks(func(id int) splitc.Task {
		return &radixTask{sh: sh, verify: cfg.Verify}
	}); err != nil {
		return apps.Result{}, err
	}
	if cfg.Verify {
		for id, bad := range sh.failed {
			if bad {
				return apps.Result{}, fmt.Errorf("%s: verification failed on proc %d", a.Name(), id)
			}
		}
	}
	res := apps.Finish(a, cfg, w, cfg.Verify)
	res.Extra["keys_per_proc"] = float64(sh.k)
	return res, nil
}

// radixCheckLocal scans one destination segment: every slot written,
// digits non-decreasing. Returns the segment's key sum.
func radixCheckLocal(seg []uint64) (bool, uint64) {
	ok := true
	var sum uint64
	for i, v := range seg {
		if v == 0 {
			ok = false
			continue
		}
		sum += v - 1
		if i > 0 && seg[i-1] != 0 && (seg[i-1]-1)&(radixBuckets-1) > (v-1)&(radixBuckets-1) {
			ok = false
		}
	}
	return ok, sum
}

// radixBoundaryOK checks the digit order across a processor boundary.
func radixBoundaryOK(prev, first uint64) bool {
	return prev != 0 && first != 0 && (prev-1)&(radixBuckets-1) <= (first-1)&(radixBuckets-1)
}

// radixTask is one processor's digit pass as a state machine: pc names
// the primitive the processor is in (or about to enter), and every loop
// that can park keeps its induction state in the struct.
type radixTask struct {
	sh     *radixShared
	verify bool

	pc      int
	d, i    int
	charged bool
	dest    splitc.GPtr
	ok      bool
	hist    [radixBuckets]uint64
	scanX   [radixBuckets]uint64
	tot     [radixBuckets]uint64
	base    [radixBuckets]uint64
	cnt     [radixBuckets]uint64
	stored  uint64
}

func (k *radixTask) Step(t *splitc.TProc) (sim.PollableWait, bool) {
	me, P, K := t.ID(), t.P(), k.sh.k
	for {
		switch k.pc {
		case 0:
			k.dest = t.Alloc(K)
			k.sh.dest[me] = k.dest
			k.pc = 1
		case 1:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			// Histogram pass over regenerated keys (keys are never
			// stored: the hash is cheaper than the memory at a million
			// processors).
			for i := 0; i < K; i++ {
				key := radixKeyAt(k.sh.seed, me, i, K)
				k.hist[key&(radixBuckets-1)]++
				t.ComputeUs(radixHistCostUs)
			}
			k.d = 0
			k.pc = 2
		case 2:
			// Per-bucket global ranks: an exclusive scan gives this
			// processor's offset within the bucket, and the last
			// processor's inclusive value — broadcast back — gives the
			// bucket total. The barrier separates the collective episodes
			// so bucket d+1's traffic cannot land in bucket d's tag window.
			v, wt := t.ScanAddT(k.hist[k.d])
			if wt != nil {
				return wt, false
			}
			k.scanX[k.d] = v
			k.pc = 3
		case 3:
			v, wt := t.BroadcastT(P-1, k.scanX[k.d]+k.hist[k.d])
			if wt != nil {
				return wt, false
			}
			k.tot[k.d] = v
			k.pc = 4
		case 4:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.d++
			if k.d < radixBuckets {
				k.pc = 2
				continue
			}
			for d := 1; d < radixBuckets; d++ {
				k.base[d] = k.base[d-1] + k.tot[d-1]
			}
			k.i = 0
			k.pc = 5
		case 5:
			// Permute: every key goes to its global rank with a pipelined
			// write (stored as key+1 so verification can spot unwritten
			// slots); the closing barrier's store-sync implies delivery.
			// The compute charge lands once per key (charged guards
			// re-entry), and rank state advances only after the write is
			// issued, so a window-stalled WriteWordT is re-called with
			// identical arguments.
			for k.i < K {
				key := radixKeyAt(k.sh.seed, me, k.i, K)
				d := key & (radixBuckets - 1)
				if !k.charged {
					t.ComputeUs(radixPermCostUs)
					k.charged = true
				}
				g := k.base[d] + k.scanX[d] + k.cnt[d]
				owner := int(g) / K
				dst := splitc.GPtr{Proc: int32(owner), Off: k.sh.dest[owner].Off + int32(int(g)%K)}
				if wt := t.WriteWordT(dst, key+1); wt != nil {
					return wt, false
				}
				k.cnt[d]++
				k.i++
				k.charged = false
			}
			k.pc = 6
		case 6:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			if !k.verify {
				return nil, true
			}
			k.ok, k.stored = radixCheckLocal(t.Local(k.dest, K))
			t.ComputeUs(radixCheckCostUs * float64(K))
			k.pc = 7
		case 7:
			if me > 0 {
				prev, wt := t.ReadWordT(splitc.GPtr{Proc: int32(me - 1), Off: k.sh.dest[me-1].Off + int32(K-1)})
				if wt != nil {
					return wt, false
				}
				if !radixBoundaryOK(prev, t.Local(k.dest, K)[0]) {
					k.ok = false
				}
			}
			k.pc = 8
		case 8:
			var inputSum uint64
			for i := 0; i < K; i++ {
				inputSum += radixKeyAt(k.sh.seed, me, i, K)
			}
			v, wt := t.AllReduceSumT(k.stored - inputSum)
			if wt != nil {
				return wt, false
			}
			if v != 0 {
				k.ok = false
			}
			k.sh.failed[me] = !k.ok
			return nil, true
		}
	}
}

var (
	_ apps.App    = Radix{}
	_ splitc.Task = (*radixTask)(nil)
)
