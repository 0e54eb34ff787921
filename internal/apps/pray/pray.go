// Package pray implements the paper's P-Ray benchmark: a scene-passing
// parallel ray tracer. A read-only spatial octree indexes the scene;
// ownership of the objects is divided evenly over the processors; every
// processor renders a block of the image, fetching remote object data
// through a fixed-size software-managed cache. Communication is therefore
// almost entirely blocking reads whose replies are bulk object records
// (Table 4: 96.5% reads, 47.9% bulk), and "hot" objects visible from many
// pixels produce the dark columns of Figure 4f.
//
// Paper input: a 1-million-pixel image of a 16390-object scene.
package pray

import (
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/splitc"
)

// Compute-cost constants (simulated 167 MHz UltraSPARC).
const (
	pixelCostUs = 3.0  // per pixel: ray setup, shading, framebuffer write
	nodeCostUs  = 0.25 // per octree node visited
	isectCostUs = 1.4  // per ray-sphere intersection test
	cacheCostUs = 0.15 // per cache probe
)

const (
	paperObjects = 16390
	paperPixels  = 1_000_000
	objWords     = 8 // center xyz, radius, color rgb, pad — one cache line
	leafCap      = 8
	maxDepth     = 6
)

// App is the P-Ray benchmark. CacheLines overrides the software cache
// capacity (0 = default: 1/8 of the scene's objects).
type App struct {
	CacheLines int
}

// New returns the benchmark instance.
func New() App { return App{} }

func (App) Name() string        { return "pray" }
func (App) PaperName() string   { return "P-Ray" }
func (App) Description() string { return "Ray Tracer" }

func sizes(cfg apps.Config) (objects, side int) {
	objects = apps.ScaleInt(paperObjects, cfg.Scale, 64)
	pixels := apps.ScaleInt(paperPixels, cfg.Scale, 16*cfg.Procs)
	side = 1
	for side*side < pixels {
		side++
	}
	return objects, side
}

func (a App) InputDesc(cfg apps.Config) string {
	cfg = cfg.Norm()
	objects, side := sizes(cfg)
	return fmt.Sprintf("%dx%d pixels, %d objects", side, side, objects)
}

// sphere is one scene object.
type sphere struct {
	cx, cy, cz, r float64
	color         float64
}

// scene is the replicated read-only index plus the full object table (the
// table is only consulted directly by owners and the serial reference).
type scene struct {
	objs []sphere
	root *onode
}

// onode is an octree node over [0,1]^3.
type onode struct {
	x0, y0, z0, size float64
	objs             []int32 // object ids (leaves)
	kids             [8]*onode
	leaf             bool
}

func buildScene(cfg apps.Config) *scene {
	objects, _ := sizes(cfg)
	s := uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 77
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s>>11) / (1 << 53)
	}
	sc := &scene{}
	sc.objs = make([]sphere, objects)
	for i := range sc.objs {
		// Clustered positions: a few dense clumps plus background, giving
		// the hot-object behavior of the paper's scenes.
		var x, y, z float64
		if i%3 == 0 {
			c := float64(i%5)/5 + 0.1
			x, y, z = c+0.08*next(), c+0.08*next(), 0.3+0.4*next()
		} else {
			x, y, z = next(), next(), next()
		}
		sc.objs[i] = sphere{cx: x, cy: y, cz: z, r: 0.004 + 0.05*next(), color: 0.2 + 0.8*next()}
	}
	sc.root = &onode{x0: 0, y0: 0, z0: 0, size: 1}
	ids := make([]int32, objects)
	for i := range ids {
		ids[i] = int32(i)
	}
	buildNode(sc, sc.root, ids, 0)
	return sc
}

func overlaps(n *onode, o *sphere) bool {
	clamp := func(v, lo, hi float64) float64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	dx := o.cx - clamp(o.cx, n.x0, n.x0+n.size)
	dy := o.cy - clamp(o.cy, n.y0, n.y0+n.size)
	dz := o.cz - clamp(o.cz, n.z0, n.z0+n.size)
	return dx*dx+dy*dy+dz*dz <= o.r*o.r
}

func buildNode(sc *scene, n *onode, ids []int32, depth int) {
	if len(ids) <= leafCap || depth >= maxDepth {
		n.leaf = true
		n.objs = ids
		return
	}
	half := n.size / 2
	for c := 0; c < 8; c++ {
		kid := &onode{
			x0:   n.x0 + float64(c&1)*half,
			y0:   n.y0 + float64((c>>1)&1)*half,
			z0:   n.z0 + float64((c>>2)&1)*half,
			size: half,
		}
		var sub []int32
		for _, id := range ids {
			if overlaps(kid, &sc.objs[id]) {
				sub = append(sub, id)
			}
		}
		if len(sub) > 0 {
			buildNode(sc, kid, sub, depth+1)
			n.kids[c] = kid
		}
	}
}

// ray is an axis-aligned-down viewing ray through pixel (px, py): origin
// (u, v, -1) direction +z. Orthographic projection keeps the math simple
// and deterministic.
type ray struct{ u, v float64 }

// hitSphere returns the ray parameter of the nearest intersection, or +Inf.
func (r ray) hitSphere(o *sphere) float64 {
	dx := r.u - o.cx
	dy := r.v - o.cy
	disc := o.r*o.r - dx*dx - dy*dy
	if disc < 0 {
		return math.Inf(1)
	}
	return o.cz - math.Sqrt(disc) // entry point along +z
}

// hitBox reports whether the ray's (u,v) column crosses the node's xy
// extent (the z axis is the ray direction, so this is exact).
func (r ray) hitBox(n *onode) bool {
	return r.u >= n.x0 && r.u <= n.x0+n.size && r.v >= n.y0 && r.v <= n.y0+n.size
}

// trace walks the octree, calling fetch for each candidate object, and
// returns the shaded color. fetch abstracts local table access (serial
// reference) versus the caching remote read (parallel run). visitCost is
// invoked per node and per intersection so both versions charge alike.
func trace(root *onode, r ray, fetch func(int32) sphere, nodeVisit, isect func()) float64 {
	best := math.Inf(1)
	color := 0.0
	var walk func(n *onode)
	walk = func(n *onode) {
		if n == nil || !r.hitBox(n) {
			return
		}
		nodeVisit()
		if n.leaf {
			for _, id := range n.objs {
				o := fetch(id)
				isect()
				if t := r.hitSphere(&o); t < best {
					best = t
					color = o.color * (1 - t/4)
				}
			}
			return
		}
		for _, kid := range n.kids {
			walk(kid)
		}
	}
	walk(root)
	return color
}

// serialRender computes the reference image.
func serialRender(sc *scene, side int) []float64 {
	img := make([]float64, side*side)
	for py := 0; py < side; py++ {
		for px := 0; px < side; px++ {
			r := ray{u: (float64(px) + 0.5) / float64(side), v: (float64(py) + 0.5) / float64(side)}
			img[py*side+px] = trace(sc.root, r, func(id int32) sphere { return sc.objs[id] }, func() {}, func() {})
		}
	}
	return img
}

// Run executes the benchmark.
func (a App) Run(cfg apps.Config) (apps.Result, error) {
	cfg = cfg.Norm()
	w, err := apps.NewWorld(cfg)
	if err != nil {
		return apps.Result{}, err
	}
	sc := buildScene(cfg)
	objects, side := sizes(cfg)
	P := cfg.Procs
	cacheLines := a.CacheLines
	if cacheLines == 0 {
		cacheLines = max(objects/2, 16)
	}

	objArr := make([]splitc.GPtr, P) // per-owner object records
	images := make([][]float64, P)
	var missesTotal int64

	body := func(p *splitc.Proc) {
		me := p.ID()
		// Objects are owned round-robin: object id -> proc id%P, local
		// index id/P.
		ownCount := (objects - me + P - 1) / P
		objArr[me] = p.Alloc(max(ownCount*objWords, 1))
		loc := p.Local(objArr[me], max(ownCount*objWords, 1))
		for i := 0; i < ownCount; i++ {
			o := sc.objs[i*P+me]
			base := i * objWords
			loc[base+0] = math.Float64bits(o.cx)
			loc[base+1] = math.Float64bits(o.cy)
			loc[base+2] = math.Float64bits(o.cz)
			loc[base+3] = math.Float64bits(o.r)
			loc[base+4] = math.Float64bits(o.color)
		}
		p.Barrier()

		// Fixed-size direct-mapped software object cache.
		cacheTag := make([]int32, cacheLines)
		cacheVal := make([]sphere, cacheLines)
		for i := range cacheTag {
			cacheTag[i] = -1
		}
		misses := int64(0)
		fetch := func(id int32) sphere {
			owner := int(id) % P
			if owner == me {
				return sc.objs[id]
			}
			p.ComputeUs(cacheCostUs)
			slot := int(id) % cacheLines
			if cacheTag[slot] == id {
				return cacheVal[slot]
			}
			misses++
			words := p.BulkGet(objArr[owner].Add(int(id)/P*objWords), objWords)
			o := sphere{
				cx:    math.Float64frombits(words[0]),
				cy:    math.Float64frombits(words[1]),
				cz:    math.Float64frombits(words[2]),
				r:     math.Float64frombits(words[3]),
				color: math.Float64frombits(words[4]),
			}
			cacheTag[slot] = id
			cacheVal[slot] = o
			return o
		}

		lo, hi := apps.BlockRange(me, side, P) // scanline block
		img := make([]float64, max(hi-lo, 0)*side)
		images[me] = img
		for py := lo; py < hi; py++ {
			for px := 0; px < side; px++ {
				r := ray{u: (float64(px) + 0.5) / float64(side), v: (float64(py) + 0.5) / float64(side)}
				img[(py-lo)*side+px] = trace(sc.root, r, fetch,
					func() { p.ComputeUs(nodeCostUs) },
					func() { p.ComputeUs(isectCostUs) })
				p.ComputeUs(pixelCostUs)
			}
			p.Poll()
		}
		p.Barrier()
		missesSum := p.AllReduceSum(uint64(misses))
		if me == 0 {
			missesTotal = int64(missesSum)
		}
	}

	if err := w.Run(body); err != nil {
		return apps.Result{}, err
	}

	if cfg.Verify {
		ref := serialRender(sc, side)
		for q := 0; q < P; q++ {
			lo, hi := apps.BlockRange(q, side, P)
			for py := lo; py < hi; py++ {
				for px := 0; px < side; px++ {
					if images[q][(py-lo)*side+px] != ref[py*side+px] {
						return apps.Result{}, fmt.Errorf("pray: pixel (%d,%d) diverges from serial render", px, py)
					}
				}
			}
		}
	}
	res := apps.Finish(a, cfg, w, cfg.Verify)
	res.Extra["misses"] = float64(missesTotal)
	return res, nil
}

var _ apps.App = App{}
