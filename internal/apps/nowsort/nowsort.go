// Package nowsort implements the paper's NOW-sort benchmark
// (Arpaci-Dusseau et al., SIGMOD '97): a disk-to-disk parallel sort of
// 100-byte records (paper input: 32 million records) in two passes.
//
// Phase 1 streams records off each node's read disk (5.5 MB/s), routes
// every record to the processor owning its key range, and ships them in
// 4 KB one-way bulk messages at the rate the disk delivers them; receivers
// spool arriving records to their write disk. Phase 2 is entirely local:
// runs are read back, merged in memory, and written out.
//
// NOW-sort is the suite's I/O-bound member: the network only matters when
// its bandwidth drops below a single disk's rate (Figure 8), and added
// overhead hides almost completely under disk time.
package nowsort

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/splitc"
)

// Compute-cost constants (simulated 167 MHz UltraSPARC).
const (
	routeCostUs = 0.25 // per record in phase 1: key extract, bucket, copy
	mergeCostUs = 0.60 // per record in phase 2: merge/sort and format
)

const (
	paperRecords = 32_000_000
	recordBytes  = 100
	diskMBs      = 5.5
	diskChunk    = 256 << 10 // streaming transfer unit
)

// App is the NOW-sort benchmark.
type App struct{}

// New returns the benchmark instance.
func New() App { return App{} }

func (App) Name() string        { return "nowsort" }
func (App) PaperName() string   { return "NOW-sort" }
func (App) Description() string { return "Disk-to-Disk Sort" }

func recordCount(cfg apps.Config) int {
	return apps.ScaleInt(paperRecords, cfg.Scale, 64*cfg.Procs)
}

func (a App) InputDesc(cfg apps.Config) string {
	cfg = cfg.Norm()
	return fmt.Sprintf("%d %d-byte records, two 5.5 MB/s disks per node", recordCount(cfg), recordBytes)
}

// destOf maps a key to its range-owning processor with exact integer math
// on the key's top 32 bits.
func destOf(key uint64, p int) int {
	return int((key >> 32) * uint64(p) >> 32)
}

// Run executes the benchmark.
func (a App) Run(cfg apps.Config) (apps.Result, error) {
	cfg = cfg.Norm()
	w, err := apps.NewWorld(cfg)
	if err != nil {
		return apps.Result{}, err
	}
	n := recordCount(cfg)
	P := cfg.Procs

	recvKeys := make([][]uint64, P)
	// Handlers run on the RECEIVING processor; per-processor spool state is
	// dispatched through these arrays indexed by ep.ID(), never through the
	// sending body's closures.
	spoolFns := make([]func(int), P)
	verifyFailed := false
	var failReason string

	body := func(p *splitc.Proc) {
		me := p.ID()
		lo, hi := apps.BlockRange(me, n, P)
		mine := hi - lo
		rng := p.Rand()

		// The input records (their keys; payloads are opaque filler that
		// exists only as wire/disk bytes).
		keys := make([]uint64, mine)
		var inputSum uint64
		for i := range keys {
			keys[i] = rng.Uint64()
			inputSum += keys[i]
		}

		readDisk := disk.New(p.EP().Proc(), diskMBs, 0)
		writeDisk := disk.New(p.EP().Proc(), diskMBs, 0)
		recvKeys[me] = make([]uint64, 0, mine+mine/4)

		// Receiver-side spooling: arriving records accumulate and are
		// streamed to the write disk in chunks (handlers must not block,
		// so they only start transfers).
		spooledBytes := 0
		pendingSpool := 0
		var lastWrite sim.Time
		spool := func(nBytes int) {
			pendingSpool += nBytes
			if pendingSpool >= diskChunk {
				lastWrite = writeDisk.StartWrite(pendingSpool)
				spooledBytes += pendingSpool
				pendingSpool = 0
			}
		}
		spoolFns[me] = spool

		recordsPerMsg := 4096 / recordBytes // 40 records per bulk fragment
		outBufs := make([][]byte, P)
		flush := func(dst int) {
			if len(outBufs[dst]) == 0 {
				return
			}
			buf := outBufs[dst]
			outBufs[dst] = nil
			p.EP().Store(dst, am.ClassWrite, func(ep *am.Endpoint, tok *am.Token, args am.Args, data []byte) {
				for off := 0; off+recordBytes <= len(data); off += recordBytes {
					recvKeys[ep.ID()] = append(recvKeys[ep.ID()], binary.LittleEndian.Uint64(data[off:]))
				}
				spoolFns[ep.ID()](len(data))
			}, am.Args{}, buf)
		}
		deliverLocal := func(key uint64) {
			recvKeys[me] = append(recvKeys[me], key)
			spool(recordBytes)
		}

		p.Barrier()

		// ---- Phase 1: read, route, ship — paced by the read disk. ----
		chunkRecords := diskChunk / recordBytes
		next := 0
		pendingReadDone := sim.Time(-1)
		startRead := func(count int) {
			if count > 0 {
				pendingReadDone = readDisk.StartRead(count * recordBytes)
			} else {
				pendingReadDone = -1
			}
		}
		take := func() int { // records in the next chunk
			c := chunkRecords
			if next+c > mine {
				c = mine - next
			}
			return c
		}
		startRead(take())
		for next < mine {
			count := take()
			readDisk.Wait(pendingReadDone)
			upcoming := next + count
			if upcoming < mine {
				c2 := chunkRecords
				if upcoming+c2 > mine {
					c2 = mine - upcoming
				}
				startRead(c2) // double-buffer the next chunk
			}
			for i := next; i < upcoming; i++ {
				key := keys[i]
				dst := destOf(key, P)
				p.ComputeUs(routeCostUs)
				if dst == me {
					deliverLocal(key)
					continue
				}
				var rec [recordBytes]byte
				binary.LittleEndian.PutUint64(rec[:], key)
				outBufs[dst] = append(outBufs[dst], rec[:]...)
				if len(outBufs[dst]) >= recordsPerMsg*recordBytes {
					flush(dst)
				}
			}
			next = upcoming
		}
		for dst := range outBufs {
			flush(dst)
		}
		p.Barrier() // all records delivered and spool-started everywhere

		// Flush the spool tail and drain the write disk.
		if pendingSpool > 0 {
			lastWrite = writeDisk.StartWrite(pendingSpool)
			spooledBytes += pendingSpool
			pendingSpool = 0
		}
		if lastWrite > 0 {
			writeDisk.Wait(lastWrite)
		}

		// ---- Phase 2: local read-merge-write, pipelined over chunks. ----
		got := recvKeys[me]
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		totalBytes := len(got) * recordBytes
		for off := 0; off < totalBytes; off += diskChunk {
			c := diskChunk
			if off+c > totalBytes {
				c = totalBytes - off
			}
			writeDisk.Read(c) // runs come back from the spool disk
			p.ComputeUs(mergeCostUs * float64(c/recordBytes))
			readDisk.StartWrite(c) // final output on the other spindle
		}
		p.Barrier()

		if cfg.Verify {
			for i := 1; i < len(got); i++ {
				if got[i-1] > got[i] {
					verifyFailed = true
					failReason = "output not sorted"
				}
			}
			for _, k := range got {
				if destOf(k, P) != me {
					verifyFailed = true
					failReason = "record landed on wrong processor"
				}
			}
			var sum uint64
			for _, k := range got {
				sum += k
			}
			if p.AllReduceSum(sum) != p.AllReduceSum(inputSum) {
				verifyFailed = true
				failReason = "key checksum not conserved"
			}
			if p.AllReduceSum(uint64(len(got))) != uint64(n) {
				verifyFailed = true
				failReason = "record count not conserved"
			}
			if spooledBytes != len(got)*recordBytes {
				verifyFailed = true
				failReason = "spooled bytes disagree with received records"
			}
		}
	}

	if err := w.Run(body); err != nil {
		return apps.Result{}, err
	}
	if cfg.Verify && verifyFailed {
		return apps.Result{}, fmt.Errorf("nowsort: verification failed: %s", failReason)
	}
	return apps.Finish(a, cfg, w, cfg.Verify), nil
}

var _ apps.App = App{}
