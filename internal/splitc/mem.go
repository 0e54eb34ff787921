package splitc

import "repro/internal/sim"

// The blocking memory primitives: each drives its resumptive form in
// cont.go to completion (see Proc.wait).

// ReadWord performs a blocking read of the word at g: one short request,
// one short reply, classified as read traffic. Local reads touch memory
// directly and cost no communication.
func (p *Proc) ReadWord(g GPtr) uint64 {
	var v uint64
	p.wait(func() (wt sim.PollableWait) { v, wt = p.ReadWordT(g); return })
	return v
}

// WriteWord performs a pipelined remote store of v to g: one short request
// whose firmware-level ack completes it. The issuing processor continues
// immediately; StoreSync (or Barrier) waits for all outstanding stores.
func (p *Proc) WriteWord(g GPtr, v uint64) {
	p.wait(func() sim.PollableWait { return p.WriteWordT(g, v) })
}

// WriteWordSync is WriteWord followed by StoreSync — a blocking write.
func (p *Proc) WriteWordSync(g GPtr, v uint64) {
	p.WriteWord(g, v)
	p.StoreSync()
}

// StoreSync blocks until every request this processor has issued — in
// particular every pipelined store — has been applied at its destination
// (Split-C's store counter synchronization).
func (p *Proc) StoreSync() { p.wait(p.StoreSyncT) }

// BulkPut copies vals into the global heap at g using the bulk-transfer
// mechanism (one bulk fragment per ≤4 KB). Like WriteWord it is pipelined;
// StoreSync waits for completion. Local puts are direct copies.
func (p *Proc) BulkPut(g GPtr, vals []uint64) {
	p.wait(func() sim.PollableWait { return p.BulkPutT(g, vals) })
}

// BulkGet performs a blocking bulk read of n words at g: one short read
// request per ≤4 KB fragment, each answered with a bulk (DMA) reply.
// Fragment requests are pipelined; the call returns when all data has
// arrived. Local gets are direct copies.
func (p *Proc) BulkGet(g GPtr, n int) []uint64 {
	var out []uint64
	p.wait(func() (wt sim.PollableWait) { out, wt = p.BulkGetT(g, n); return })
	return out
}

// Slice returns a direct view of the owning heap from g to its end. It is
// the escape hatch message handlers use to scatter bulk payloads into
// global memory on the processor where they run.
func (w *World) Slice(g GPtr) []uint64 { return w.mem[g.Proc][g.Off:] }
