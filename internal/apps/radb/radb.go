// Package radb implements the paper's Radb benchmark: the bulk-message
// restructuring of the radix sort (Alexandrov et al.'s LogGP paper). The
// algorithm is the same two-pass radix sort as package radix, but every
// data movement is aggregated: the global histogram travels as one bulk
// array per pipeline hop, and after ranking, each processor sends all keys
// bound for a destination in one bulk transfer of (position, key) pairs
// instead of one short message per key.
//
// Depending on the network's per-message cost versus its bulk bandwidth,
// Radb beats or loses to Radix — which is exactly why the paper includes
// both (Radb is the most bandwidth-sensitive member of Figure 8).
package radb

import (
	"fmt"
	"math"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/splitc"
)

// Compute-cost constants (simulated 167 MHz UltraSPARC).
const (
	countCostUs = 0.055 // per key: local ranking
	packCostUs  = 0.060 // per key: build the (position, key) pair
	placeCostUs = 0.070 // per key: receiver-side scatter into the block
	scanCostUs  = 0.040 // per bucket: prefix arithmetic
)

const paperKeys = 16_000_000

// App is the Radb benchmark.
type App struct{}

// New returns the benchmark instance.
func New() App { return App{} }

func (App) Name() string        { return "radb" }
func (App) PaperName() string   { return "Radb" }
func (App) Description() string { return "Bulk version of Radix sort" }

func sizes(cfg apps.Config) (n, radix int) {
	n = apps.ScaleInt(paperKeys, cfg.Scale, 64*cfg.Procs)
	perProc := n / cfg.Procs
	bits := int(math.Round(math.Log2(float64(perProc) * 65536 / 500000)))
	if bits < 6 {
		bits = 6
	}
	if bits > 16 {
		bits = 16
	}
	radix = 1 << bits
	return n, radix
}

func (a App) InputDesc(cfg apps.Config) string {
	cfg = cfg.Norm()
	n, radix := sizes(cfg)
	return fmt.Sprintf("%d keys in [0,%d), radix %d, 2 passes, bulk all-to-all", n, radix*radix, radix)
}

// Run executes the benchmark.
func (a App) Run(cfg apps.Config) (apps.Result, error) {
	cfg = cfg.Norm()
	w, err := apps.NewWorld(cfg)
	if err != nil {
		return apps.Result{}, err
	}
	n, radix := sizes(cfg)
	P := cfg.Procs
	digitBits := uint(math.Ilogb(float64(radix)))

	destArr := make([]splitc.GPtr, P)  // final key blocks
	chainArr := make([]splitc.GPtr, P) // histogram pipeline landing area
	chainFlg := make([]splitc.GPtr, P)
	offArr := make([]splitc.GPtr, P) // global bucket offsets
	offFlg := make([]splitc.GPtr, P)
	bound := make([]splitc.GPtr, P) // verification boundary words
	loOf := make([]int, P+1)
	for q := 0; q <= P; q++ {
		lo, _ := apps.BlockRange(q, n, P)
		loOf[q] = lo
	}
	verifyFailed := false

	body := func(p *splitc.Proc) {
		me := p.ID()
		lo, hi := loOf[me], loOf[me+1]
		mine := hi - lo
		rng := p.Rand()
		keyRange := radix * radix
		keys := make([]uint32, mine)
		var inputSum uint64
		for i := range keys {
			keys[i] = uint32(rng.Intn(keyRange))
			inputSum += uint64(keys[i])
		}

		destArr[me] = p.Alloc(max(mine, 1))
		chainArr[me] = p.Alloc(radix)
		chainFlg[me] = p.Alloc(1)
		offArr[me] = p.Alloc(radix)
		offFlg[me] = p.Alloc(1)
		dest := p.Local(destArr[me], max(mine, 1))
		p.Barrier()

		for pass := 0; pass < 2; pass++ {
			shift := uint(pass) * digitBits
			mask := uint32(radix - 1)

			// Phase 1: local rank.
			counts := make([]uint64, radix)
			for i, k := range keys {
				counts[(k>>shift)&mask]++
				if i%4096 == 4095 {
					p.Poll()
				}
			}
			p.ComputeUs(countCostUs * float64(len(keys)))
			p.Barrier()

			// Phase 2: histogram pipeline, one bulk array per hop.
			myStart := make([]uint64, radix)
			want := uint64(pass) + 1
			if me > 0 {
				flag := p.Local(chainFlg[me], 1)
				p.EP().WaitUntil(func() bool { return flag[0] >= want }, "radb: histogram hop")
				copy(myStart, p.Local(chainArr[me], radix))
			}
			running := make([]uint64, radix)
			for b := 0; b < radix; b++ {
				running[b] = myStart[b] + counts[b]
			}
			p.ComputeUs(scanCostUs * float64(radix))
			var gOff []uint64
			if me < P-1 {
				p.BulkPut(chainArr[me+1], running)
				p.WriteWord(chainFlg[me+1], want)
				// Await the offsets broadcast from the last processor.
				flag := p.Local(offFlg[me], 1)
				p.EP().WaitUntil(func() bool { return flag[0] >= want }, "radb: await offsets")
				gOff = p.Local(offArr[me], radix)
			} else {
				offs := make([]uint64, radix)
				var run uint64
				for b := 0; b < radix; b++ {
					offs[b] = run
					run += running[b]
				}
				p.ComputeUs(scanCostUs * float64(radix) / 2)
				for q := 0; q < P-1; q++ {
					p.BulkPut(offArr[q], offs)
					p.WriteWord(offFlg[q], want)
				}
				copy(p.Local(offArr[me], radix), offs)
				gOff = p.Local(offArr[me], radix)
			}

			// Phase 3: one bulk transfer of (position, key) pairs per
			// destination processor.
			rank := make([]uint64, radix)
			pairs := make([][]uint64, P)
			for _, k := range keys {
				b := (k >> shift) & mask
				pos := int(gOff[b] + myStart[b] + rank[b])
				rank[b]++
				owner := apps.BlockOwner(pos, n, P)
				pairs[owner] = append(pairs[owner], uint64(pos-loOf[owner])<<32|uint64(k))
				p.ComputeUs(packCostUs)
			}
			for q := 0; q < P; q++ {
				if len(pairs[q]) == 0 {
					continue
				}
				if q == me {
					for _, pr := range pairs[q] {
						dest[pr>>32] = pr & 0xFFFFFFFF
					}
					p.ComputeUs(placeCostUs * float64(len(pairs[q])))
					continue
				}
				buf := make([]byte, 8*len(pairs[q]))
				for i, pr := range pairs[q] {
					putUint64(buf[8*i:], pr)
				}
				target := destArr[q]
				p.EP().StoreLarge(q, am.ClassWrite, func(ep *am.Endpoint, tok *am.Token, args am.Args, data []byte) {
					mem := destOfProc(w, target)
					for i := 0; i+8 <= len(data); i += 8 {
						pr := getUint64(data[i:])
						mem[pr>>32] = pr & 0xFFFFFFFF
					}
					ep.Compute(splitcMicros(placeCostUs * float64(len(data)/8)))
				}, am.Args{}, buf)
			}
			p.Barrier()

			for i := range keys {
				keys[i] = uint32(dest[i])
			}
			p.Barrier()
		}

		if cfg.Verify {
			for i := 1; i < len(keys); i++ {
				if keys[i-1] > keys[i] {
					verifyFailed = true
				}
			}
			var sum uint64
			for _, k := range keys {
				sum += uint64(k)
			}
			if p.AllReduceSum(sum) != p.AllReduceSum(inputSum) {
				verifyFailed = true
			}
			if p.AllReduceSum(uint64(len(keys))) != uint64(n) {
				verifyFailed = true
			}
			// Cross-processor boundary order via a neighbor read.
			bound[me] = p.Alloc(1)
			p.Barrier()
			if mine > 0 {
				p.WriteWord(bound[me], uint64(keys[0])+1)
			}
			p.Barrier()
			if mine > 0 && me < P-1 {
				nb := p.ReadWord(bound[me+1])
				if nb != 0 && uint64(keys[mine-1]) > nb-1 {
					verifyFailed = true
				}
			}
		}
	}

	if err := w.Run(body); err != nil {
		return apps.Result{}, err
	}
	if cfg.Verify && verifyFailed {
		return apps.Result{}, fmt.Errorf("radb: verification failed")
	}
	return apps.Finish(a, cfg, w, cfg.Verify), nil
}

// destOfProc resolves a destination block's local slice on the handler's
// processor.
func destOfProc(w *splitc.World, g splitc.GPtr) []uint64 {
	return w.Slice(g)
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getUint64(b []byte) uint64 {
	_ = b[7]
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func splitcMicros(us float64) sim.Time { return sim.FromMicros(us) }

var _ apps.App = App{}
