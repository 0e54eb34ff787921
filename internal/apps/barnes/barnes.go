package barnes

import (
	"fmt"
	"sort"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/splitc"
)

// Compute-cost constants (simulated 167 MHz UltraSPARC).
const (
	clearCostUs  = 0.08 // per owned cell record zeroed between steps
	aggCostUs    = 0.40 // per body per level during local aggregation
	updateCostUs = 1.50 // per cell read-modify-write under the lock
	probeCostUs  = 0.20 // per software-cache probe in the force pass
	visitCostUs  = 1.80 // per cell evaluated against the body
	advanceCost  = 2.00 // per body integration
)

const paperBodies = 1_000_000

// steps is the number of time steps every run simulates.
const steps = 2

// App is the Barnes benchmark.
type App struct{}

// New returns the benchmark instance.
func New() App { return App{} }

func (App) Name() string        { return "barnes" }
func (App) PaperName() string   { return "Barnes" }
func (App) Description() string { return "Hierarchical N-Body simulation" }

func bodyCount(cfg apps.Config) int {
	return apps.ScaleInt(paperBodies, cfg.Scale, 32*cfg.Procs)
}

func (App) InputDesc(cfg apps.Config) string {
	cfg = cfg.Norm()
	n := bodyCount(cfg)
	t := newTree(n, cfg.Procs)
	return fmt.Sprintf("%d bodies, octree depth %d (%d cells), %d steps",
		n, t.depth, t.totalCells, steps)
}

// shared is the cross-processor state of one run: the tree geometry, the
// initial bodies, and the cell record blocks each owner publishes before
// the first barrier.
type shared struct {
	tr         *tree
	n          int
	cacheLines int
	all        []body
	recArr     []splitc.GPtr // per-owner cell record blocks
}

// recPtr is the global address of cell uid's record.
func (sh *shared) recPtr(uid int) splitc.GPtr {
	return sh.recArr[sh.tr.ownerOf[uid]].Add(int(sh.tr.slotOf[uid]) * recWords)
}

// Run executes the benchmark.
func (a App) Run(cfg apps.Config) (apps.Result, error) {
	cfg = cfg.Norm()
	w, err := apps.NewWorld(cfg)
	if err != nil {
		return apps.Result{}, err
	}
	n := bodyCount(cfg)
	P := cfg.Procs
	tr := newTree(n, P)
	sh := &shared{
		tr:         tr,
		n:          n,
		cacheLines: max(tr.totalCells/2, 64), // half the tree's cell records
		all:        initBodies(n, cfg.Seed),
		recArr:     make([]splitc.GPtr, P),
	}

	tasks := make([]*task, P)
	if err := w.RunTasks(func(id int) splitc.Task {
		tasks[id] = &task{sh: sh}
		return tasks[id]
	}); err != nil {
		return apps.Result{}, err
	}

	if cfg.Verify {
		ref := append([]body(nil), sh.all...)
		for s := 0; s < steps; s++ {
			tr.serialStep(ref)
		}
		for q, k := range tasks {
			lo, _ := apps.BlockRange(q, n, P)
			for i, b := range k.mine {
				if b != ref[lo+i] {
					return apps.Result{}, fmt.Errorf("barnes: body %d diverges from serial reference: %+v vs %+v",
						lo+i, b, ref[lo+i])
				}
			}
		}
	}
	res := apps.Finish(a, cfg, w, cfg.Verify)
	res.Extra["failedLocks"] = float64(tasks[0].failedLocks)
	return res, nil
}

// task is one processor's time-steps as a state machine: pc names the
// phase the processor is in (or about to enter). A step clears the owned
// cell records (2, 3), folds the local aggregate into the shared tree
// under cell locks (4–8), and runs the force pass (9, 10); the failed
// lock attempts are summed at the end (11).
type task struct {
	sh *shared
	t  *splitc.TProc // the processor, for the walk's cell fetches

	pc, step int
	mine     []body
	myRecs   []uint64

	// Tree construction: agg is the step's local aggregate, uids its
	// cells in order, u the cell being folded in and words its record.
	agg   aggregated
	uids  []int
	u     int
	words []uint64

	// Force pass: body is the next body to advance and w its walk, live
	// while walking; polling is set between a 64th body's advance and its
	// poll; charged is set once the cell the walk is fetching has paid
	// its visit and probe, so a parked fetch does not pay twice.
	body     int
	w        walk
	walking  bool
	polling  bool
	charged  bool
	cacheTag []int32
	cacheVal []cellRecord

	failedLocks uint64 // the run's total, on processor 0
}

func (k *task) Step(t *splitc.TProc) (sim.PollableWait, bool) {
	sh, tr, me := k.sh, k.sh.tr, t.ID()
	k.t = t
	for {
		switch k.pc {
		case 0:
			lo, hi := apps.BlockRange(me, sh.n, t.P())
			k.mine = append([]body(nil), sh.all[lo:hi]...)
			nRecs := max(tr.ownCount[me], 1)
			sh.recArr[me] = t.Alloc(nRecs * recWords)
			k.myRecs = t.Local(sh.recArr[me], nRecs*recWords)
			k.cacheTag = make([]int32, sh.cacheLines)
			k.cacheVal = make([]cellRecord, sh.cacheLines)
			k.pc = 1
		case 1:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.pc = 2
		case 2:
			if k.step == steps {
				k.pc = 11
				continue
			}
			// Phase 0: owners clear their cell records.
			for i := range k.myRecs {
				k.myRecs[i] = 0
			}
			t.ComputeUs(clearCostUs * float64(tr.ownCount[me]))
			k.pc = 3
		case 3:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			// Phase 1: tree construction. Aggregate locally, then fold
			// each touched cell into the shared record under its lock.
			k.agg = tr.aggregate(k.mine)
			t.ComputeUs(aggCostUs * float64(len(k.mine)*(tr.depth+1)))
			k.uids = k.uids[:0]
			for uid := range k.agg {
				k.uids = append(k.uids, uid)
			}
			sort.Ints(k.uids)
			k.u = 0
			k.pc = 4
		case 4:
			if k.u == len(k.uids) {
				k.pc = 8
				continue
			}
			// Every update — including the owner's own — holds the cell
			// lock: a lock-free owner update could land inside a remote
			// holder's read-modify-write window and be lost.
			uid := k.uids[k.u]
			if wt := t.LockT(sh.recPtr(uid)); wt != nil {
				return wt, false
			}
			if int(tr.ownerOf[uid]) != me {
				k.pc = 5
				continue
			}
			c := k.agg[uid]
			base := int(tr.slotOf[uid]) * recWords
			k.myRecs[base+1] += uint64(c.mass)
			k.myRecs[base+2] += uint64(c.sx)
			k.myRecs[base+3] += uint64(c.sy)
			k.myRecs[base+4] += uint64(c.sz)
			t.ComputeUs(updateCostUs)
			k.pc = 7
		case 5:
			uid := k.uids[k.u]
			words, wt := t.BulkGetT(sh.recPtr(uid).Add(1), 4)
			if wt != nil {
				return wt, false
			}
			c := k.agg[uid]
			words[0] += uint64(c.mass)
			words[1] += uint64(c.sx)
			words[2] += uint64(c.sy)
			words[3] += uint64(c.sz)
			k.words = words
			k.pc = 6
		case 6:
			if wt := t.BulkPutT(sh.recPtr(k.uids[k.u]).Add(1), k.words); wt != nil {
				return wt, false
			}
			t.ComputeUs(updateCostUs)
			k.pc = 7
		case 7:
			if wt := t.UnlockT(sh.recPtr(k.uids[k.u])); wt != nil {
				return wt, false
			}
			k.u++
			k.pc = 4
		case 8:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			// Phase 2: force computation through the software cache.
			for i := range k.cacheTag {
				k.cacheTag[i] = -1
			}
			k.pc = 9
		case 9:
			if wt := k.force(t); wt != nil {
				return wt, false
			}
			k.pc = 10
		case 10:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.step++
			k.pc = 2
		case 11:
			locks, wt := t.AllReduceSumT(uint64(t.FailedLockAttempts()))
			if wt != nil {
				return wt, false
			}
			if me == 0 {
				k.failedLocks = locks
			}
			return nil, true
		}
	}
}

// force advances every owned body one step: a tree walk for its force,
// the integration, and a poll after every 64th body. A nil return means
// the pass is done.
func (k *task) force(t *splitc.TProc) sim.PollableWait {
	for ; k.body < len(k.mine); k.body++ {
		if !k.polling {
			b := &k.mine[k.body]
			if !k.walking {
				k.w.start(k.sh.tr, b.x, b.y, b.z)
				k.walking = true
			}
			if wt := k.w.run(k); wt != nil {
				return wt
			}
			k.walking = false
			b.advance(k.w.fx, k.w.fy, k.w.fz)
			t.ComputeUs(advanceCost)
			if k.body%64 != 63 {
				continue
			}
			k.polling = true
		}
		if wt := t.EP().PollT(); wt != nil {
			return wt
		}
		k.polling = false
	}
	k.body = 0
	return nil
}

// cell is the force pass's cellSource: every cell the walk visits costs
// a visit, a remote one a software-cache probe too, and a cache miss
// fetches the record from its owner.
func (k *task) cell(uid int) (cellRecord, sim.PollableWait) {
	t := k.t
	remote := int(k.sh.tr.ownerOf[uid]) != t.ID()
	if !k.charged {
		t.ComputeUs(visitCostUs)
		if remote {
			t.ComputeUs(probeCostUs)
		}
		k.charged = true
	}
	c, wt := k.fetch(uid, remote)
	if wt == nil {
		k.charged = false
	}
	return c, wt
}

// fetch returns cell uid's record from the processor's own records, the
// software cache, or (a miss) the owner's memory with BulkGetT.
func (k *task) fetch(uid int, remote bool) (cellRecord, sim.PollableWait) {
	if !remote {
		base := int(k.sh.tr.slotOf[uid]) * recWords
		return cellRecord{
			mass: int64(k.myRecs[base+1]),
			sx:   int64(k.myRecs[base+2]),
			sy:   int64(k.myRecs[base+3]),
			sz:   int64(k.myRecs[base+4]),
		}, nil
	}
	slot := uid % k.sh.cacheLines
	if k.cacheTag[slot] == int32(uid) {
		return k.cacheVal[slot], nil
	}
	words, wt := k.t.BulkGetT(k.sh.recPtr(uid).Add(1), 4)
	if wt != nil {
		return cellRecord{}, wt
	}
	c := cellRecord{
		mass: int64(words[0]),
		sx:   int64(words[1]),
		sy:   int64(words[2]),
		sz:   int64(words[3]),
	}
	k.cacheTag[slot] = int32(uid)
	k.cacheVal[slot] = c
	return c, nil
}

var (
	_ apps.App    = App{}
	_ splitc.Task = (*task)(nil)
	_ cellSource  = (*task)(nil)
)
