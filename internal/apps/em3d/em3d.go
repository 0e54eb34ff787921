// Package em3d implements the paper's EM3D benchmark: the kernel of a 3-D
// electromagnetic wave propagation code (Culler et al., "Parallel
// Programming in Split-C"). An irregular bipartite graph of E and H nodes
// is spread over the processors; each time-step updates every E value as a
// linear function of its H neighbors and vice versa.
//
// Two complementary variants reproduce the paper's pair:
//
//   - Write — the owner of a value pushes it to per-edge boundary-node
//     copies on remote readers with pipelined writes, then a barrier; a
//     representative bulk-synchronous application.
//   - Read — readers pull each remote value with a blocking read; the
//     paper's "worst case" latency-bound application (97% reads).
//
// Substitution note: field values are 64-bit integers with hash-derived
// edge weights (update: v += Σ w·neighbor mod 2⁶⁴), so parallel and serial
// executions agree exactly regardless of summation order; the
// communication structure is identical to the floating-point original.
package em3d

import (
	"repro/internal/apps"
)

// Compute-cost constants (simulated 167 MHz UltraSPARC).
const (
	edgeCostUs = 0.45 // per edge: load weight, multiply-accumulate
	nodeCostUs = 0.60 // per node per step: loop overhead, stores
)

// Paper input (Table 3): 80000 nodes, 40% remote, degree 20, 100 steps.
const (
	paperNodes   = 80000
	degree       = 20
	remoteFrac   = 0.40
	defaultSteps = 100
	maxDist      = 3 // remote neighbors live within ±maxDist processors
)

// graph is the per-processor partition of the bipartite graph, built
// deterministically from the seed (input preparation happens outside
// simulated time, like reading an input deck).
type graph struct {
	nPer  int // E nodes per proc == H nodes per proc
	steps int

	// For reader r, localDep[r][i] lists local indices of same-side-local
	// dependencies of node i; remote dependencies arrive via boundary
	// slots boundaryOf[r][i].
	eLocalDep [][][]int32 // E node -> local H indices
	hLocalDep [][][]int32
	eBoundary [][][]int32 // E node -> indices into the proc's E-boundary array
	hBoundary [][][]int32
	// weights parallel the dependency lists (local first, then boundary).
	eLocalW [][][]uint64
	hLocalW [][][]uint64
	eBndW   [][][]uint64
	hBndW   [][][]uint64

	// push lists: for each owner proc, the remote boundary slots its
	// values feed. pushH[p] = (local H index, remote slot GPtr-less form:
	// dst proc + slot).
	pushH []pushList // H values feeding remote E-boundary slots
	pushE []pushList

	nEBnd []int // E-boundary slots per proc
	nHBnd []int
}

type pushEntry struct {
	local int32 // local index of the value to push
	dst   int32 // destination processor
	slot  int32 // destination boundary slot
}

type pushList []pushEntry

// weight derives a small deterministic edge weight.
func weight(a, b, salt uint64) uint64 { return (a*2654435761 + b*40503 + salt) % 7 }

// buildGraph creates the partitioned bipartite graph.
func buildGraph(cfg apps.Config) *graph {
	P := cfg.Procs
	nNodes := apps.ScaleInt(paperNodes, cfg.Scale, 16*P)
	nPer := nNodes / (2 * P) // E and H nodes per proc
	if nPer < 4 {
		nPer = 4
	}
	g := &graph{nPer: nPer, steps: defaultSteps}
	g.eLocalDep = make([][][]int32, P)
	g.hLocalDep = make([][][]int32, P)
	g.eBoundary = make([][][]int32, P)
	g.hBoundary = make([][][]int32, P)
	g.eLocalW = make([][][]uint64, P)
	g.hLocalW = make([][][]uint64, P)
	g.eBndW = make([][][]uint64, P)
	g.hBndW = make([][][]uint64, P)
	g.pushH = make([]pushList, P)
	g.pushE = make([]pushList, P)
	g.nEBnd = make([]int, P)
	g.nHBnd = make([]int, P)

	rng := newSplitMix(uint64(cfg.Seed) | 1)
	for p := 0; p < P; p++ {
		g.eLocalDep[p] = make([][]int32, nPer)
		g.hLocalDep[p] = make([][]int32, nPer)
		g.eBoundary[p] = make([][]int32, nPer)
		g.hBoundary[p] = make([][]int32, nPer)
		g.eLocalW[p] = make([][]uint64, nPer)
		g.hLocalW[p] = make([][]uint64, nPer)
		g.eBndW[p] = make([][]uint64, nPer)
		g.hBndW[p] = make([][]uint64, nPer)
	}
	// Generate E-side dependencies (E reads H) and mirrored H-side
	// dependencies (H reads E) with independent draws, exactly degree
	// edges per node.
	for side := 0; side < 2; side++ {
		for p := 0; p < P; p++ {
			for i := 0; i < nPer; i++ {
				for d := 0; d < degree; d++ {
					remote := P > 1 && rng.float() < remoteFrac
					src := p
					if remote {
						span := maxDist
						if span > P-1 {
							span = P - 1
						}
						off := 1 + int(rng.next()%uint64(span))
						if rng.next()&1 == 0 {
							src = (p + off) % P
						} else {
							src = ((p-off)%P + P) % P
						}
					}
					j := int32(rng.next() % uint64(nPer))
					wgt := weight(uint64(p*nPer+i), uint64(src)*uint64(nPer)+uint64(j), uint64(side))
					if side == 0 { // E node (p,i) reads H node (src,j)
						if src == p {
							g.eLocalDep[p][i] = append(g.eLocalDep[p][i], j)
							g.eLocalW[p][i] = append(g.eLocalW[p][i], wgt)
						} else {
							slot := int32(g.nEBnd[p])
							g.nEBnd[p]++
							g.eBoundary[p][i] = append(g.eBoundary[p][i], slot)
							g.eBndW[p][i] = append(g.eBndW[p][i], wgt)
							g.pushH[src] = append(g.pushH[src], pushEntry{local: j, dst: int32(p), slot: slot})
						}
					} else { // H node (p,i) reads E node (src,j)
						if src == p {
							g.hLocalDep[p][i] = append(g.hLocalDep[p][i], j)
							g.hLocalW[p][i] = append(g.hLocalW[p][i], wgt)
						} else {
							slot := int32(g.nHBnd[p])
							g.nHBnd[p]++
							g.hBoundary[p][i] = append(g.hBoundary[p][i], slot)
							g.hBndW[p][i] = append(g.hBndW[p][i], wgt)
							g.pushE[src] = append(g.pushE[src], pushEntry{local: j, dst: int32(p), slot: slot})
						}
					}
				}
			}
		}
	}
	return g
}

// initValue is each node's deterministic starting field value.
func initValue(side, proc, idx int) uint64 {
	return uint64(side+1)*1_000_003 ^ uint64(proc)*7919 ^ uint64(idx)*104729
}

// boundarySources reconstructs the remote dependencies from the push
// lists: for reader p, e[p][s] is the (source proc in dst, source index
// in local) whose H value feeds E-boundary slot s — the pushH entry with
// dst = p, slot = s — and h[p] the same for the H side.
func (g *graph) boundarySources(P int) (e, h [][]pushEntry) {
	e = make([][]pushEntry, P)
	h = make([][]pushEntry, P)
	for p := 0; p < P; p++ {
		e[p] = make([]pushEntry, g.nEBnd[p])
		h[p] = make([]pushEntry, g.nHBnd[p])
	}
	for src := 0; src < P; src++ {
		for _, x := range g.pushH[src] {
			e[x.dst][x.slot] = pushEntry{local: x.local, dst: int32(src)}
		}
		for _, x := range g.pushE[src] {
			h[x.dst][x.slot] = pushEntry{local: x.local, dst: int32(src)}
		}
	}
	return e, h
}

// serialReference runs the same computation on one Go thread, returning
// the final E and H values per proc. Used by Verify.
func (g *graph) serialReference(P int) (eRef, hRef [][]uint64) {
	eRef = make([][]uint64, P)
	hRef = make([][]uint64, P)
	for p := 0; p < P; p++ {
		eRef[p] = make([]uint64, g.nPer)
		hRef[p] = make([]uint64, g.nPer)
		for i := 0; i < g.nPer; i++ {
			eRef[p][i] = initValue(0, p, i)
			hRef[p][i] = initValue(1, p, i)
		}
	}
	eBndSrc, hBndSrc := g.boundarySources(P)
	for step := 0; step < g.steps; step++ {
		newE := make([][]uint64, P)
		for p := 0; p < P; p++ {
			newE[p] = make([]uint64, g.nPer)
			for i := 0; i < g.nPer; i++ {
				v := eRef[p][i]
				for k, j := range g.eLocalDep[p][i] {
					v += g.eLocalW[p][i][k] * hRef[p][j]
				}
				for k, s := range g.eBoundary[p][i] {
					src := eBndSrc[p][s]
					v += g.eBndW[p][i][k] * hRef[src.dst][src.local]
				}
				newE[p][i] = v
			}
		}
		for p := 0; p < P; p++ {
			copy(eRef[p], newE[p])
		}
		newH := make([][]uint64, P)
		for p := 0; p < P; p++ {
			newH[p] = make([]uint64, g.nPer)
			for i := 0; i < g.nPer; i++ {
				v := hRef[p][i]
				for k, j := range g.hLocalDep[p][i] {
					v += g.hLocalW[p][i][k] * eRef[p][j]
				}
				for k, s := range g.hBoundary[p][i] {
					src := hBndSrc[p][s]
					v += g.hBndW[p][i][k] * eRef[src.dst][src.local]
				}
				newH[p][i] = v
			}
		}
		for p := 0; p < P; p++ {
			copy(hRef[p], newH[p])
		}
	}
	return eRef, hRef
}

// splitMix is a tiny deterministic PRNG for graph construction, kept
// separate from the simulator's per-proc streams.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitMix) float() float64 { return float64(r.next()>>11) / (1 << 53) }
