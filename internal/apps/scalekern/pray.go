// scale-pray: the request/reply kernel. Every processor publishes one
// scene word, then performs rounds of blocking reads from hash-selected
// partners — each a short request/reply round trip — folding the values
// into a local accumulator, with a closing all-reduce producing a scene
// checksum. This is the communication skeleton of the paper's P-Ray
// scene-cache lookups at weak scale: round count per processor fixed,
// partner selection scattering uniformly over all P processors.
package scalekern

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/splitc"
)

const (
	prayPaperRounds = 512  // lookup rounds per processor at Scale = 1
	prayRayCostUs   = 0.40 // per round: traverse to the cache miss
	prayShadeCostUs = 0.20 // per round: shade with the fetched value
)

// Pray is the scale-pray kernel.
type Pray struct{}

func (Pray) Name() string        { return "scale-pray" }
func (Pray) PaperName() string   { return "P-Ray (scale)" }
func (Pray) Description() string { return "Weak-scaling hashed-partner read/reply rounds" }

func prayRounds(cfg apps.Config) int {
	return apps.ScaleInt(prayPaperRounds, cfg.Scale, 8)
}

func (a Pray) InputDesc(cfg apps.Config) string {
	cfg = cfg.Norm()
	return fmt.Sprintf("%d read rounds/proc, %d scene words", prayRounds(cfg), cfg.Procs)
}

// praySceneAt is the deterministic scene word owned by processor id.
func praySceneAt(seed int64, id int) uint64 {
	return splitmix64(uint64(seed)*0x2545F4914F6CDD1D ^ (uint64(id) + 1))
}

// prayPartner picks the round-r read target of processor me: a hash
// scattered over all processors, never the reader itself (when P > 1).
func prayPartner(seed int64, me, r, p int) int {
	q := int(splitmix64(uint64(seed)*0x9E3779B97F4A7C15^(uint64(me)<<20+uint64(r)+1)) % uint64(p))
	if q == me && p > 1 {
		q = (q + 1) % p
	}
	return q
}

// prayShared carries each processor's published scene slot, the
// verification flags, and the checksum from the closing all-reduce.
type prayShared struct {
	rounds   int
	seed     int64
	slot     []splitc.GPtr
	failed   []bool
	checksum uint64
}

// Run executes the kernel.
func (a Pray) Run(cfg apps.Config) (apps.Result, error) {
	cfg = cfg.Norm()
	w, err := apps.NewWorld(cfg)
	if err != nil {
		return apps.Result{}, err
	}
	sh := &prayShared{
		rounds: prayRounds(cfg),
		seed:   cfg.Seed,
		slot:   make([]splitc.GPtr, cfg.Procs),
		failed: make([]bool, cfg.Procs),
	}
	if err := w.RunTasks(func(id int) splitc.Task {
		return &prayTask{sh: sh, verify: cfg.Verify}
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
	res.Extra["rounds_per_proc"] = float64(sh.rounds)
	res.Extra["scene_checksum"] = float64(sh.checksum % (1 << 52))
	return res, nil
}

// prayTask is one processor's lookup rounds as a state machine: pc
// names the primitive the processor is in (or about to enter).
type prayTask struct {
	sh     *prayShared
	verify bool

	pc      int
	r       int
	charged bool
	slot    splitc.GPtr
	acc     uint64
	ok      bool
}

func (k *prayTask) Step(t *splitc.TProc) (sim.PollableWait, bool) {
	me, P := t.ID(), t.P()
	for {
		switch k.pc {
		case 0:
			k.slot = t.Alloc(1)
			k.sh.slot[me] = k.slot
			t.WriteWordT(k.slot, praySceneAt(k.sh.seed, me)) // local: never stalls
			k.ok = true
			k.pc = 1
		case 1:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.r = 0
			k.pc = 2
		case 2:
			// Lookup rounds: charged guards the per-round ray cost so a
			// parked read is re-entered without re-charging.
			for k.r < k.sh.rounds {
				q := prayPartner(k.sh.seed, me, k.r, P)
				if !k.charged {
					t.ComputeUs(prayRayCostUs)
					k.charged = true
				}
				v, wt := t.ReadWordT(splitc.GPtr{Proc: int32(q), Off: k.sh.slot[q].Off})
				if wt != nil {
					return wt, false
				}
				if v != praySceneAt(k.sh.seed, q) {
					k.ok = false
				}
				k.acc += splitmix64(v ^ uint64(k.r))
				t.ComputeUs(prayShadeCostUs)
				k.charged = false
				k.r++
			}
			k.pc = 3
		case 3:
			sum, wt := t.AllReduceSumT(k.acc)
			if wt != nil {
				return wt, false
			}
			if me == 0 {
				k.sh.checksum = sum
			}
			if k.verify {
				k.sh.failed[me] = !k.ok
			}
			return nil, true
		}
	}
}

var (
	_ apps.App    = Pray{}
	_ splitc.Task = (*prayTask)(nil)
)
