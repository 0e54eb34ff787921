// Package barnes implements the paper's Barnes benchmark: a hierarchical
// Barnes-Hut N-body simulation in the style of the SPLASH-2 code, but with
// the spatial octree replicated in software over the global address space
// (paper input: 1 million bodies). Tree cells live on hash-determined
// owner processors; construction updates them under blocking locks (the
// source of the paper's famous livelock under added overhead — Figure 5's
// Barnes curve stops at Δo≈7 µs on 32 nodes), and the force pass reads
// cells through a fixed-size software-managed cache (Table 4: 20.6% reads,
// 23.3% bulk).
//
// Substitution note: body positions are 20-bit fixed-point integers and
// cell mass/center-of-mass sums are integers, so construction order cannot
// perturb the tree; the force pass then performs identical floating-point
// operations in parallel and serial runs, making the final body state
// bit-for-bit verifiable against the serial reference.
package barnes

import (
	"math"

	"repro/internal/sim"
)

const (
	coordBits = 20             // fixed-point position grid per axis
	coordMax  = 1 << coordBits // exclusive upper bound
	theta     = 0.7            // opening criterion
	softening = 64.0           // grid units, avoids singular forces
	dt        = 0.25           // integration step (grid units per step²)
	gravity   = 5000.0         // scaled gravitational constant
	recWords  = 8              // cell record: lock, mass, sx, sy, sz, pad…
)

// body is one simulated particle. Positions are grid integers; velocities
// are floats (the force pass is floating point, deterministically).
type body struct {
	x, y, z    int64
	vx, vy, vz float64
}

// tree describes the fixed-depth hashed octree geometry.
type tree struct {
	depth      int   // finest level
	levelBase  []int // uid of the first cell at each level
	totalCells int
	ownerOf    []int32 // uid -> owning processor
	slotOf     []int32 // uid -> record index on the owner
	ownCount   []int   // records per processor
}

// newTree sizes the octree: depth grows with the body count so leaves hold
// a handful of bodies, as in adaptive Barnes-Hut.
func newTree(bodies, procs int) *tree {
	depth := 1
	for cells := 8; depth < 6 && bodies > cells*4; depth++ {
		cells *= 8
	}
	t := &tree{depth: depth}
	t.levelBase = make([]int, depth+2)
	for l := 0; l <= depth; l++ {
		t.levelBase[l+1] = t.levelBase[l] + 1<<(3*l)
	}
	t.totalCells = t.levelBase[depth+1]
	t.ownerOf = make([]int32, t.totalCells)
	t.slotOf = make([]int32, t.totalCells)
	t.ownCount = make([]int, procs)
	for uid := 0; uid < t.totalCells; uid++ {
		h := uint64(uid) * 0x9e3779b97f4a7c15
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 32
		owner := int(h % uint64(procs))
		t.ownerOf[uid] = int32(owner)
		t.slotOf[uid] = int32(t.ownCount[owner])
		t.ownCount[owner]++
	}
	return t
}

// cellIndex returns the Morton index of the cell containing (x,y,z) at
// level l.
func cellIndex(x, y, z int64, l int) int {
	shift := uint(coordBits - l)
	ix, iy, iz := x>>shift, y>>shift, z>>shift
	idx := 0
	for b := 0; b < l; b++ {
		idx |= int((ix>>uint(b))&1) << (3 * b)
		idx |= int((iy>>uint(b))&1) << (3*b + 1)
		idx |= int((iz>>uint(b))&1) << (3*b + 2)
	}
	return idx
}

// uidOf composes a global cell id from level and Morton index.
func (t *tree) uidOf(l, idx int) int { return t.levelBase[l] + idx }

// cellSize is the edge length of a level-l cell in grid units.
func cellSize(l int) float64 { return float64(int64(1) << uint(coordBits-l)) }

// cellRecord is the decoded cell payload.
type cellRecord struct {
	mass       int64
	sx, sy, sz int64
}

// accumulate folds a cell's pull on a body at (x, y, z) into the force
// vector. selfMass/selfPos are subtracted when the body itself is part of
// the cell (its own leaf).
func (c cellRecord) accumulate(x, y, z int64, subtractSelf bool,
	fx, fy, fz *float64) {
	m := float64(c.mass)
	sx, sy, sz := float64(c.sx), float64(c.sy), float64(c.sz)
	if subtractSelf {
		m--
		sx -= float64(x)
		sy -= float64(y)
		sz -= float64(z)
	}
	if m <= 0 {
		return
	}
	comX, comY, comZ := sx/m, sy/m, sz/m
	dx, dy, dz := comX-float64(x), comY-float64(y), comZ-float64(z)
	d2 := dx*dx + dy*dy + dz*dz + softening*softening
	inv := 1 / math.Sqrt(d2)
	f := gravity * m * inv * inv * inv
	*fx += f * dx
	*fy += f * dy
	*fz += f * dz
}

// cellSource supplies the cell records a walk visits. A non-nil wait
// means the record is not there yet: the walk parks on it and asks for
// the same cell again once it is over.
type cellSource interface {
	cell(uid int) (cellRecord, sim.PollableWait)
}

// cellTable is a full table of cell records, indexed by uid: the serial
// reference's cellSource, which never waits.
type cellTable []cellRecord

func (c cellTable) cell(uid int) (cellRecord, sim.PollableWait) { return c[uid], nil }

// walk is the Barnes-Hut traversal for one body, resumable at every cell
// fetch. Cells are visited depth first — a cell, then its eight children
// in Morton order — and the cells opened but not finished are an explicit
// stack (at most depth of them), so a fetch that must wait parks the walk
// without a call stack to keep.
type walk struct {
	t          *tree
	x, y, z    int64
	fx, fy, fz float64 // the force so far; the body's force once run returns nil
	l, idx     int     // the cell to fetch next, while pending
	pending    bool
	open       []openCell
}

// openCell is a cell whose children a walk is visiting; k is the next
// child.
type openCell struct{ l, idx, k int }

// start begins the walk of tree t for the body at (x, y, z).
func (w *walk) start(t *tree, x, y, z int64) {
	w.t = t
	w.x, w.y, w.z = x, y, z
	w.fx, w.fy, w.fz = 0, 0, 0
	w.l, w.idx, w.pending = 0, 0, true
	w.open = w.open[:0]
}

// run visits cells until the walk is done (nil) or src must wait (the
// wait; call run again with the same src once it is over).
func (w *walk) run(src cellSource) sim.PollableWait {
	for {
		if w.pending {
			c, wt := src.cell(w.t.uidOf(w.l, w.idx))
			if wt != nil {
				return wt
			}
			w.pending = false
			w.visit(c)
		}
		n := len(w.open)
		if n == 0 {
			return nil
		}
		o := &w.open[n-1]
		if o.k == 8 {
			w.open = w.open[:n-1]
			continue
		}
		w.l, w.idx, w.pending = o.l+1, o.idx<<3|o.k, true
		o.k++
	}
}

// visit applies the fetched record of the current cell: an empty cell
// adds nothing, a leaf or a cell far enough away adds its pull, and any
// other cell is opened.
func (w *walk) visit(c cellRecord) {
	if c.mass == 0 {
		return
	}
	x, y, z := w.x, w.y, w.z
	contains := cellIndex(x, y, z, w.l) == w.idx
	if w.l == w.t.depth {
		c.accumulate(x, y, z, contains, &w.fx, &w.fy, &w.fz)
		return
	}
	if !contains {
		// Opening criterion against the center of mass.
		m := float64(c.mass)
		comX, comY, comZ := float64(c.sx)/m, float64(c.sy)/m, float64(c.sz)/m
		dx, dy, dz := comX-float64(x), comY-float64(y), comZ-float64(z)
		d2 := dx*dx + dy*dy + dz*dz + softening*softening
		s := cellSize(w.l)
		if s*s < theta*theta*d2 {
			c.accumulate(x, y, z, false, &w.fx, &w.fy, &w.fz)
			return
		}
	}
	w.open = append(w.open, openCell{l: w.l, idx: w.idx})
}

// advance integrates one body one step and quantizes it back onto the grid
// with reflecting boundaries.
func (b *body) advance(fx, fy, fz float64) {
	b.vx += fx * dt
	b.vy += fy * dt
	b.vz += fz * dt
	quant := func(pos int64, v *float64) int64 {
		nx := int64(math.Round(float64(pos) + *v*dt))
		if nx < 0 {
			nx = -nx
			*v = -*v
		}
		if nx >= coordMax {
			nx = 2*(coordMax-1) - nx
			*v = -*v
		}
		if nx < 0 || nx >= coordMax { // extreme velocity: clamp
			nx = coordMax / 2
		}
		return nx
	}
	b.x = quant(b.x, &b.vx)
	b.y = quant(b.y, &b.vy)
	b.z = quant(b.z, &b.vz)
}

// aggregated is the per-level mass contribution of a set of local bodies.
type aggregated map[int]cellRecord

// aggregate folds the bodies into per-cell sums for levels 0..depth.
func (t *tree) aggregate(bodies []body) aggregated {
	agg := make(aggregated)
	for i := range bodies {
		b := &bodies[i]
		for l := 0; l <= t.depth; l++ {
			uid := t.uidOf(l, cellIndex(b.x, b.y, b.z, l))
			c := agg[uid]
			c.mass++
			c.sx += b.x
			c.sy += b.y
			c.sz += b.z
			agg[uid] = c
		}
	}
	return agg
}

// serialStep runs one reference time-step over all bodies: build the full
// cell table, then walk and advance each body.
func (t *tree) serialStep(all []body) {
	cells := make(cellTable, t.totalCells)
	for i := range all {
		b := &all[i]
		for l := 0; l <= t.depth; l++ {
			uid := t.uidOf(l, cellIndex(b.x, b.y, b.z, l))
			cells[uid].mass++
			cells[uid].sx += b.x
			cells[uid].sy += b.y
			cells[uid].sz += b.z
		}
	}
	var src cellSource = cells
	var w walk
	for i := range all {
		b := &all[i]
		w.start(t, b.x, b.y, b.z)
		w.run(src) // a cellTable never waits
		b.advance(w.fx, w.fy, w.fz)
	}
}

// initBodies generates the deterministic clustered initial conditions.
func initBodies(n int, seed int64) []body {
	s := uint64(seed)*0x9e3779b97f4a7c15 + 4242
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	bodies := make([]body, n)
	for i := range bodies {
		// Plummer-ish clumps: half the bodies in 4 clusters, half spread.
		var x, y, z uint64
		if i%2 == 0 {
			c := uint64(i % 4)
			cx := (c%2)*coordMax/2 + coordMax/4
			cy := (c/2)*coordMax/2 + coordMax/4
			x = cx + next()%(coordMax/8) - coordMax/16
			y = cy + next()%(coordMax/8) - coordMax/16
			z = coordMax/2 + next()%(coordMax/8) - coordMax/16
		} else {
			x, y, z = next()%coordMax, next()%coordMax, next()%coordMax
		}
		bodies[i] = body{x: int64(x % coordMax), y: int64(y % coordMax), z: int64(z % coordMax)}
	}
	return bodies
}
