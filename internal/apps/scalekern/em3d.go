// scale-em3d: the pipelined kernel. Processors form a ring; every
// iteration each one pushes D boundary words to both neighbors with
// pipelined short writes, bulk-puts its whole field block to the right
// neighbor, synchronizes, and relaxes its field against the received
// ghosts. This is the communication skeleton of the paper's EM3D —
// store-driven producer/consumer traffic — at weak scale: field size per
// processor fixed, barrier depth growing as log P.
package scalekern

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/splitc"
)

const (
	em3dGhostWords = 4 // D: boundary words exchanged with each neighbor

	em3dPaperWords    = 2048 // per-processor field words at Scale = 1
	em3dPaperIters    = 256  // relaxation iterations at Scale = 1
	em3dInitCostUs    = 0.02 // per word: field initialization
	em3dBoundCostUs   = 0.10 // per boundary word: pack value, issue send
	em3dUpdateCostUs  = 0.05 // per word: relaxation update
	em3dFieldMixConst = 2654435761
)

// Em3d is the scale-em3d kernel.
type Em3d struct{}

func (Em3d) Name() string        { return "scale-em3d" }
func (Em3d) PaperName() string   { return "EM3D (scale)" }
func (Em3d) Description() string { return "Weak-scaling ring relaxation with bulk ghost exchange" }

func em3dWords(cfg apps.Config) int {
	return apps.ScaleInt(em3dPaperWords, cfg.Scale, 16)
}

func em3dIters(cfg apps.Config) int {
	return apps.ScaleInt(em3dPaperIters, cfg.Scale, 3)
}

func (a Em3d) InputDesc(cfg apps.Config) string {
	cfg = cfg.Norm()
	return fmt.Sprintf("%d field words/proc, %d ghost words/neighbor, %d iterations",
		em3dWords(cfg), em3dGhostWords, em3dIters(cfg))
}

// em3dInitAt is the deterministic initial field value.
func em3dInitAt(seed int64, me, i int) uint64 {
	return splitmix64(uint64(seed)*0xD1B54A32D192ED03 ^ (uint64(me)<<24 + uint64(i) + 1))
}

// em3dShared carries the cross-processor layout (each processor's ghost
// landing areas, published before the first barrier) and verification
// state.
type em3dShared struct {
	b, iters int
	seed     int64
	gl       []splitc.GPtr // written by the left neighbor (short writes)
	gr       []splitc.GPtr // written by the right neighbor (short writes)
	gb       []splitc.GPtr // left neighbor's field block (bulk put)
	sum      []uint64      // final per-processor field sum (verification)
}

// Run executes the kernel.
func (a Em3d) Run(cfg apps.Config) (apps.Result, error) {
	cfg = cfg.Norm()
	w, err := apps.NewWorld(cfg)
	if err != nil {
		return apps.Result{}, err
	}
	sh := &em3dShared{
		b:     em3dWords(cfg),
		iters: em3dIters(cfg),
		seed:  cfg.Seed,
		gl:    make([]splitc.GPtr, cfg.Procs),
		gr:    make([]splitc.GPtr, cfg.Procs),
		gb:    make([]splitc.GPtr, cfg.Procs),
	}
	if cfg.Verify {
		sh.sum = make([]uint64, cfg.Procs)
	}
	if err := w.RunTasks(func(id int) splitc.Task {
		return &em3dTask{sh: sh, verify: cfg.Verify}
	}); err != nil {
		return apps.Result{}, err
	}
	if cfg.Verify {
		want := em3dReference(cfg.Procs, sh.b, sh.iters, sh.seed)
		for id := range want {
			if sh.sum[id] != want[id] {
				return apps.Result{}, fmt.Errorf("%s: verification failed on proc %d (field sum %d, want %d)",
					a.Name(), id, sh.sum[id], want[id])
			}
		}
	}
	res := apps.Finish(a, cfg, w, cfg.Verify)
	res.Extra["field_words"] = float64(sh.b)
	res.Extra["iterations"] = float64(sh.iters)
	return res, nil
}

// em3dUpdate relaxes one field in place against its ghosts. In-place is
// safe: slot i reads only itself and ghost state.
func em3dUpdate(f, gl, gr, gb []uint64, iter int) {
	for i := range f {
		f[i] = f[i]*em3dFieldMixConst + gb[i] + gl[i%em3dGhostWords] + gr[i%em3dGhostWords] + uint64(iter)
	}
}

// em3dTask is one processor's relaxation loop as a state machine: pc
// names the primitive the processor is in (or about to enter).
type em3dTask struct {
	sh     *em3dShared
	verify bool

	pc      int
	it, j   int
	half    int
	charged bool
	gl, gr  splitc.GPtr
	gb      splitc.GPtr
	field   splitc.GPtr
}

func (k *em3dTask) Step(t *splitc.TProc) (sim.PollableWait, bool) {
	me, P, B := t.ID(), t.P(), k.sh.b
	left := (me - 1 + P) % P
	right := (me + 1) % P
	for {
		switch k.pc {
		case 0:
			k.gl = t.Alloc(em3dGhostWords)
			k.gr = t.Alloc(em3dGhostWords)
			k.gb = t.Alloc(B)
			k.field = t.Alloc(B)
			k.sh.gl[me], k.sh.gr[me], k.sh.gb[me] = k.gl, k.gr, k.gb
			f := t.Local(k.field, B)
			for i := range f {
				f[i] = em3dInitAt(k.sh.seed, me, i)
			}
			t.ComputeUs(em3dInitCostUs * float64(B))
			k.pc = 1
		case 1:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.it, k.j, k.half = 0, 0, 0
			k.pc = 2
		case 2:
			// Boundary exchange: my low words go to the left neighbor's gr
			// (I am its right neighbor), my high words to the right
			// neighbor's gl. half tracks which of the two writes of word
			// j is in flight, and charged guards the per-write compute so
			// a window stall never double-charges.
			f := t.Local(k.field, B)
			for k.j < em3dGhostWords {
				if k.half == 0 {
					if !k.charged {
						t.ComputeUs(em3dBoundCostUs)
						k.charged = true
					}
					dst := splitc.GPtr{Proc: int32(left), Off: k.sh.gr[left].Off + int32(k.j)}
					if wt := t.WriteWordT(dst, splitmix64(f[k.j])); wt != nil {
						return wt, false
					}
					k.charged = false
					k.half = 1
				}
				if !k.charged {
					t.ComputeUs(em3dBoundCostUs)
					k.charged = true
				}
				dst := splitc.GPtr{Proc: int32(right), Off: k.sh.gl[right].Off + int32(k.j)}
				if wt := t.WriteWordT(dst, splitmix64(f[B-1-k.j])); wt != nil {
					return wt, false
				}
				k.charged = false
				k.half = 0
				k.j++
			}
			k.pc = 3
		case 3:
			// Field push: the whole block to the right neighbor's bulk ghost.
			f := t.Local(k.field, B)
			if wt := t.BulkPutT(splitc.GPtr{Proc: int32(right), Off: k.sh.gb[right].Off}, f); wt != nil {
				return wt, false
			}
			k.pc = 4
		case 4:
			if wt := t.BarrierT(); wt != nil { // store-sync implies all ghosts arrived
				return wt, false
			}
			em3dUpdate(t.Local(k.field, B), t.Local(k.gl, em3dGhostWords), t.Local(k.gr, em3dGhostWords), t.Local(k.gb, B), k.it)
			t.ComputeUs(em3dUpdateCostUs * float64(B))
			k.pc = 5
		case 5:
			// Neighbors must finish reading ghosts before the next wave lands.
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.it++
			if k.it < k.sh.iters {
				k.j, k.half = 0, 0
				k.pc = 2
				continue
			}
			if k.verify {
				var sum uint64
				for _, v := range t.Local(k.field, B) {
					sum += v
				}
				k.sh.sum[me] = sum
			}
			return nil, true
		}
	}
}

// em3dReference replays the relaxation in plain Go (no simulator) and
// returns the expected final per-processor field sums.
func em3dReference(P, B, iters int, seed int64) []uint64 {
	fields := make([][]uint64, P)
	for me := range fields {
		fields[me] = make([]uint64, B)
		for i := range fields[me] {
			fields[me][i] = em3dInitAt(seed, me, i)
		}
	}
	gls := make([][]uint64, P)
	grs := make([][]uint64, P)
	gbs := make([][]uint64, P)
	for it := 0; it < iters; it++ {
		// Snapshot pass: compute all ghosts from pre-update fields, then
		// update every field — matching the barrier-fenced exchange.
		for me := 0; me < P; me++ {
			left := (me - 1 + P) % P
			right := (me + 1) % P
			myGl := make([]uint64, em3dGhostWords)
			myGr := make([]uint64, em3dGhostWords)
			for j := 0; j < em3dGhostWords; j++ {
				// gl[me] is written by the left neighbor with its high words;
				// gr[me] by the right neighbor with its low words.
				myGl[j] = splitmix64(fields[left][B-1-j])
				myGr[j] = splitmix64(fields[right][j])
			}
			myGb := make([]uint64, B)
			copy(myGb, fields[left]) // left neighbor bulk-puts its field into my gb
			gls[me], grs[me], gbs[me] = myGl, myGr, myGb
		}
		for me := 0; me < P; me++ {
			em3dUpdate(fields[me], gls[me], grs[me], gbs[me], it)
		}
	}
	out := make([]uint64, P)
	for me, f := range fields {
		var sum uint64
		for _, v := range f {
			sum += v
		}
		out[me] = sum
	}
	return out
}

var (
	_ apps.App    = Em3d{}
	_ splitc.Task = (*em3dTask)(nil)
)
