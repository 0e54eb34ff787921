package em3d

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/splitc"
)

// App is one EM3D variant. Steps overrides the time-step count when
// nonzero (tests use a handful; the paper runs 100).
type App struct {
	ReadBased bool
	Steps     int
}

// NewWrite returns the write-based (push) variant.
func NewWrite() App { return App{ReadBased: false} }

// NewRead returns the read-based (pull) variant.
func NewRead() App { return App{ReadBased: true} }

func (a App) Name() string {
	if a.ReadBased {
		return "em3d-read"
	}
	return "em3d-write"
}

func (a App) PaperName() string {
	if a.ReadBased {
		return "EM3D(read)"
	}
	return "EM3D(write)"
}

func (a App) Description() string {
	return "Electro-magnetic wave propagation"
}

func (a App) InputDesc(cfg apps.Config) string {
	cfg = cfg.Norm()
	g := buildGraph(cfg)
	steps := a.steps(g)
	return fmt.Sprintf("%d nodes, %d%% remote, degree %d, %d steps",
		2*g.nPer*cfg.Procs, int(remoteFrac*100), degree, steps)
}

func (a App) steps(g *graph) int {
	if a.Steps > 0 {
		return a.Steps
	}
	return g.steps
}

// shared is the cross-processor state of one run: the graph, the array
// pointers each processor publishes before the first barrier, and the
// read variant's remote dependency table.
type shared struct {
	g         *graph
	readBased bool
	verify    bool

	eArr, hArr       []splitc.GPtr
	eBndArr, hBndArr []splitc.GPtr

	// Read variant: remote dependencies as (src proc, src index), derived
	// from the push lists so both variants share one graph
	// (graph.boundarySources).
	eRemote, hRemote [][]pushEntry
}

// Run executes the benchmark.
func (a App) Run(cfg apps.Config) (apps.Result, error) {
	cfg = cfg.Norm()
	w, err := apps.NewWorld(cfg)
	if err != nil {
		return apps.Result{}, err
	}
	g := buildGraph(cfg)
	g.steps = a.steps(g)
	P := cfg.Procs

	sh := &shared{
		g:         g,
		readBased: a.ReadBased,
		verify:    cfg.Verify,
		eArr:      make([]splitc.GPtr, P),
		hArr:      make([]splitc.GPtr, P),
		eBndArr:   make([]splitc.GPtr, P),
		hBndArr:   make([]splitc.GPtr, P),
	}
	if a.ReadBased {
		sh.eRemote, sh.hRemote = g.boundarySources(P)
	}

	tasks := make([]*task, P)
	if err := w.RunTasks(func(id int) splitc.Task {
		tasks[id] = &task{sh: sh}
		return tasks[id]
	}); err != nil {
		return apps.Result{}, err
	}
	if cfg.Verify {
		eRef, hRef := g.serialReference(P)
		for me, k := range tasks {
			for i := 0; i < g.nPer; i++ {
				if k.eVal[i] != eRef[me][i] || k.hVal[i] != hRef[me][i] {
					return apps.Result{}, fmt.Errorf("em3d: field values diverge from serial reference")
				}
			}
		}
	}
	return apps.Finish(a, cfg, w, cfg.Verify), nil
}

// task is one processor's time-steps as a state machine: pc names the
// phase the processor is in (or about to enter), and node, edge and entry
// are the cursors a wait can interrupt inside a side computation or a
// push. Both variants share it; readBased selects the phases a step runs.
type task struct {
	sh *shared

	pc   int
	step int

	// node is the next node of the side being computed and edge its next
	// boundary edge; v is node's partial sum, valid while inNode.
	node, edge int
	v          uint64
	inNode     bool
	// entry is the next push-list entry to store.
	entry int

	eVal, hVal, eBnd, hBnd []uint64
	newVals                []uint64
}

func (k *task) Step(t *splitc.TProc) (sim.PollableWait, bool) {
	sh, g, me := k.sh, k.sh.g, t.ID()
	for {
		switch k.pc {
		case 0:
			nPer := g.nPer
			sh.eArr[me] = t.Alloc(nPer)
			sh.hArr[me] = t.Alloc(nPer)
			sh.eBndArr[me] = t.Alloc(max(g.nEBnd[me], 1))
			sh.hBndArr[me] = t.Alloc(max(g.nHBnd[me], 1))
			k.eVal = t.Local(sh.eArr[me], nPer)
			k.hVal = t.Local(sh.hArr[me], nPer)
			for i := 0; i < nPer; i++ {
				k.eVal[i] = initValue(0, me, i)
				k.hVal[i] = initValue(1, me, i)
			}
			k.pc = 1
		case 1:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.eBnd = t.Local(sh.eBndArr[me], max(g.nEBnd[me], 1))
			k.hBnd = t.Local(sh.hBndArr[me], max(g.nHBnd[me], 1))
			k.newVals = make([]uint64, g.nPer)
			k.pc = 2
		case 2:
			// Next time-step. The read variant pulls remote values while
			// it computes (5, 7, 8, 9); the write variant pushes H into
			// remote E-boundary copies, computes E, pushes E, computes H,
			// and fences each push with a barrier so no push of the next
			// step lands under a reader (3, 4, 5, 6, 7, 8, 9).
			switch {
			case k.step < g.steps && sh.readBased:
				k.pc = 5
			case k.step < g.steps:
				k.pc = 3
			case sh.verify:
				k.pc = 10
			default:
				return nil, true
			}
		case 3:
			if wt := k.push(t, g.pushH[me], k.hVal, sh.eBndArr); wt != nil {
				return wt, false
			}
			k.pc = 4
		case 4:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.pc = 5
		case 5:
			if wt := k.computeSide(t, k.eVal, g.eLocalDep[me], g.eLocalW[me], g.eBoundary[me], g.eBndW[me], k.eBnd, k.hVal, sh.eRemote, sh.hArr); wt != nil {
				return wt, false
			}
			if sh.readBased {
				k.pc = 7
			} else {
				k.pc = 6
			}
		case 6:
			if wt := k.push(t, g.pushE[me], k.eVal, sh.hBndArr); wt != nil {
				return wt, false
			}
			k.pc = 7
		case 7:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.pc = 8
		case 8:
			if wt := k.computeSide(t, k.hVal, g.hLocalDep[me], g.hLocalW[me], g.hBoundary[me], g.hBndW[me], k.hBnd, k.eVal, sh.hRemote, sh.eArr); wt != nil {
				return wt, false
			}
			k.pc = 9
		case 9:
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			k.step++
			k.pc = 2
		case 10:
			// Verify: one more barrier before the values are compared.
			if wt := t.BarrierT(); wt != nil {
				return wt, false
			}
			return nil, true
		}
	}
}

// computeSide updates every node of one side from the other side's
// values: local edges read other directly, boundary edges read the pushed
// copies in bnd (write variant) or fetch the owner's word with ReadWordT
// (read variant, which parks between a node's boundary edges; remote and
// otherArr are its dependency table and the other side's arrays). A nil
// return means the side is done.
func (k *task) computeSide(t *splitc.TProc, vals []uint64, localDep [][]int32, localW [][]uint64,
	bndIdx [][]int32, bndW [][]uint64, bnd []uint64, other []uint64,
	remote [][]pushEntry, otherArr []splitc.GPtr) sim.PollableWait {
	for ; k.node < len(vals); k.node++ {
		i := k.node
		if !k.inNode {
			v := vals[i]
			ws := localW[i]
			for e, j := range localDep[i] {
				v += ws[e] * other[j]
			}
			k.v, k.edge, k.inNode = v, 0, true
		}
		bs := bndIdx[i]
		bws := bndW[i]
		for ; k.edge < len(bs); k.edge++ {
			s := bs[k.edge]
			if !k.sh.readBased {
				k.v += bws[k.edge] * bnd[s]
				continue
			}
			src := remote[t.ID()][s]
			rv, wt := t.ReadWordT(otherArr[src.dst].Add(int(src.local)))
			if wt != nil {
				return wt
			}
			k.v += bws[k.edge] * rv
		}
		t.ComputeUs(edgeCostUs*float64(len(localDep[i])+len(bs)) + nodeCostUs)
		k.newVals[i] = k.v
		k.inNode = false
	}
	copy(vals, k.newVals)
	k.node = 0
	return nil
}

// push stores the listed local values into their remote boundary slots
// with pipelined writes. A nil return means every store was issued.
func (k *task) push(t *splitc.TProc, list pushList, vals []uint64, dstArr []splitc.GPtr) sim.PollableWait {
	for ; k.entry < len(list); k.entry++ {
		e := list[k.entry]
		if wt := t.WriteWordT(dstArr[e.dst].Add(int(e.slot)), vals[e.local]); wt != nil {
			return wt
		}
	}
	k.entry = 0
	return nil
}

var (
	_ apps.App    = App{}
	_ splitc.Task = (*task)(nil)
)
