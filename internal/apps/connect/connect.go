// Package connect implements the paper's Connect benchmark: parallel
// connected components over a sparse 2-D mesh (Lumetta, Krishnamurthy &
// Culler, Supercomputing '95). Paper input: a 4-million-node 2-D mesh with
// 30% of the lattice edges present.
//
// The graph is partitioned into row strips. Each processor first collapses
// its local subgraph with a sequential union-find (computation only); the
// global phase then merges components across strip boundaries with a
// distributed union-find whose parent words live in the global address
// space: finds chase parent pointers with blocking remote reads (Connect
// is 67% reads in Table 4) and unions hook roots with compare-and-swap.
package connect

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/splitc"
)

// Compute-cost constants (simulated 167 MHz UltraSPARC).
const (
	nodeInitCostUs  = 3.0  // per node: allocate and initialize union-find state
	localEdgeCostUs = 2.5  // per intra-strip edge: find+union with cache misses
	stepCostUs      = 0.15 // per pointer-chase step in the global phase
)

const (
	paperNodes = 4_000_000
	edgeProb   = 0.30
)

// App is the Connect benchmark.
type App struct{}

// New returns the benchmark instance.
func New() App { return App{} }

func (App) Name() string        { return "connect" }
func (App) PaperName() string   { return "Connect" }
func (App) Description() string { return "Connected Components" }

// dims derives the scaled mesh. The mesh is 16× taller than wide so a
// strip's interior-to-boundary work ratio at scaled inputs stays close to
// the paper's 2000×2000 mesh on 32 processors (boundary work scales with
// the perimeter, local work with the area).
func dims(cfg apps.Config) (rows, cols int) {
	n := apps.ScaleInt(paperNodes, cfg.Scale, 64*cfg.Procs)
	side := 1
	for side*side < n {
		side++
	}
	rows, cols = side*4, (side+3)/4
	if rows < cfg.Procs {
		rows = cfg.Procs // at least one row per processor
	}
	return rows, cols
}

func (a App) InputDesc(cfg apps.Config) string {
	cfg = cfg.Norm()
	r, c := dims(cfg)
	return fmt.Sprintf("%dx%d mesh, %d%% connected", r, c, int(edgeProb*100))
}

// mesh holds the deterministic edge structure: for each node, whether its
// right and down lattice edges are present.
type mesh struct {
	rows, cols int
	right      []bool
	down       []bool
}

func buildMesh(cfg apps.Config) *mesh {
	rows, cols := dims(cfg)
	m := &mesh{rows: rows, cols: cols}
	m.right = make([]bool, rows*cols)
	m.down = make([]bool, rows*cols)
	s := uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 12345
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	thresh := uint64(edgeProb * float64(^uint64(0)))
	for i := range m.right {
		m.right[i] = next() < thresh
		m.down[i] = next() < thresh
	}
	return m
}

// serialComponents labels each node with its component representative.
func (m *mesh) serialComponents() []int32 {
	n := m.rows * m.cols
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			id := int32(r*m.cols + c)
			if c+1 < m.cols && m.right[id] {
				union(id, id+1)
			}
			if r+1 < m.rows && m.down[id] {
				union(id, id+int32(m.cols))
			}
		}
	}
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = find(int32(i))
	}
	return labels
}

// Run executes the benchmark.
func (a App) Run(cfg apps.Config) (apps.Result, error) {
	cfg = cfg.Norm()
	w, err := apps.NewWorld(cfg)
	if err != nil {
		return apps.Result{}, err
	}
	m := buildMesh(cfg)
	P := cfg.Procs

	parentArr := make([]splitc.GPtr, P)
	parentLoc := make([][]uint64, P) // captured local views for verification
	rowLo := make([]int, P+1)
	for q := 0; q <= P; q++ {
		lo, _ := apps.BlockRange(q, m.rows, P)
		rowLo[q] = lo
	}
	owner := func(node int) int {
		r := node / m.cols
		return apps.BlockOwner(r, m.rows, P)
	}
	gptrOf := func(node int) splitc.GPtr {
		q := owner(node)
		return parentArr[q].Add(node - rowLo[q]*m.cols)
	}

	body := func(p *splitc.Proc) {
		me := p.ID()
		lo, hi := rowLo[me], rowLo[me+1]
		nLocal := (hi - lo) * m.cols
		parentArr[me] = p.Alloc(max(nLocal, 1))
		local := p.Local(parentArr[me], max(nLocal, 1))
		parentLoc[me] = local
		base := lo * m.cols
		for i := 0; i < nLocal; i++ {
			local[i] = uint64(base + i)
		}
		p.Barrier()

		// Phase 1: collapse the local strip (sequential union-find over
		// intra-strip edges).
		find := func(x int) int {
			for int(local[x-base]) != x {
				nx := int(local[x-base])
				local[x-base] = local[nx-base] // path halving (local)
				x = int(local[x-base])
			}
			return x
		}
		edges := 0
		for r := lo; r < hi; r++ {
			for c := 0; c < m.cols; c++ {
				id := r*m.cols + c
				if c+1 < m.cols && m.right[id] {
					ra, rb := find(id), find(id+1)
					if ra != rb {
						if ra < rb {
							local[rb-base] = uint64(ra)
						} else {
							local[ra-base] = uint64(rb)
						}
					}
					edges++
				}
				if r+1 < hi && m.down[id] {
					ra, rb := find(id), find(id+m.cols)
					if ra != rb {
						if ra < rb {
							local[rb-base] = uint64(ra)
						} else {
							local[ra-base] = uint64(rb)
						}
					}
					edges++
				}
			}
			p.Poll()
		}
		p.ComputeUs(localEdgeCostUs*float64(edges) + nodeInitCostUs*float64(nLocal))
		p.Barrier()

		// Phase 2: merge across strip boundaries with the distributed
		// union-find. Each processor handles the boundary below its strip.
		gFind := func(x int) int {
			for {
				q := owner(x)
				var px int
				if q == me {
					px = int(local[x-base])
				} else {
					px = int(p.ReadWord(gptrOf(x)))
				}
				p.ComputeUs(stepCostUs)
				if px == x {
					return x
				}
				x = px
			}
		}
		gUnion := func(u, v int) {
			for {
				ru, rv := gFind(u), gFind(v)
				if ru == rv {
					return
				}
				hi, lo2 := ru, rv
				if hi < lo2 {
					hi, lo2 = lo2, hi
				}
				if p.CompareSwap(gptrOf(hi), uint64(hi), uint64(lo2)) {
					return
				}
			}
		}
		if me < P-1 && hi < m.rows {
			r := hi - 1
			for c := 0; c < m.cols; c++ {
				id := r*m.cols + c
				if m.down[id] {
					gUnion(id, id+m.cols)
				}
			}
		}
		p.Barrier()
	}

	if err := w.Run(body); err != nil {
		return apps.Result{}, err
	}

	if cfg.Verify {
		if err := verify(m, parentLoc, rowLo, P); err != nil {
			return apps.Result{}, err
		}
	}
	return apps.Finish(a, cfg, w, cfg.Verify), nil
}

// verify checks the distributed partition equals the serial one (as an
// equivalence relation; representative choice may differ).
func verify(m *mesh, parentLoc [][]uint64, rowLo []int, P int) error {
	n := m.rows * m.cols
	find := func(x int) int {
		for {
			q := apps.BlockOwner(x/m.cols, m.rows, P)
			px := int(parentLoc[q][x-rowLo[q]*m.cols])
			if px == x {
				return x
			}
			x = px
		}
	}
	serial := m.serialComponents()
	s2p := make(map[int32]int)
	p2s := make(map[int]int32)
	for i := 0; i < n; i++ {
		pr := find(i)
		sr := serial[i]
		if got, ok := s2p[sr]; ok {
			if got != pr {
				return fmt.Errorf("connect: node %d parallel root %d, expected class root %d", i, pr, got)
			}
		} else {
			s2p[sr] = pr
		}
		if got, ok := p2s[pr]; ok {
			if got != sr {
				return fmt.Errorf("connect: parallel root %d spans serial classes %d and %d", pr, got, sr)
			}
		} else {
			p2s[pr] = sr
		}
	}
	return nil
}

var _ apps.App = App{}
