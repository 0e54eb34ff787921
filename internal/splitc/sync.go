package splitc

import "repro/internal/sim"

// The blocking synchronization primitives: each drives its resumptive
// form in cont.go to completion (see Proc.wait).

// Barrier synchronizes all processors with the world's selected barrier
// algorithm (Config.Collectives; the dissemination barrier by default).
// Every algorithm first waits for the caller's outstanding stores
// (Split-C barriers imply store completion).
func (p *Proc) Barrier() { p.wait(p.BarrierT) }

// AllReduce combines one word from every processor with op (which must be
// associative and commutative) and returns the result on all processors.
// Custom operators always run the binomial reduce-broadcast tree,
// bypassing the world's algorithm selection; prefer AllReduceOp with a
// ReduceOp (or the AllReduceSum/AllReduceMax wrappers) when a built-in
// operator fits.
func (p *Proc) AllReduce(val uint64, op func(a, b uint64) uint64) uint64 {
	var v uint64
	p.wait(func() (wt sim.PollableWait) { v, wt = p.AllReduceT(val, op); return })
	return v
}

// Broadcast distributes root's val to all processors with the world's
// selected broadcast algorithm (binomial tree by default). Successive
// broadcasts need no barrier between them.
func (p *Proc) Broadcast(root int, val uint64) uint64 {
	var v uint64
	p.wait(func() (wt sim.PollableWait) { v, wt = p.BroadcastT(root, val); return })
	return v
}

// AllReduceOp combines one word from every processor with a built-in
// operator, using the world's selected all-reduce algorithm, and returns
// the result everywhere.
func (p *Proc) AllReduceOp(val uint64, op ReduceOp) uint64 {
	var v uint64
	p.wait(func() (wt sim.PollableWait) { v, wt = p.AllReduceOpT(val, op); return })
	return v
}

// AllReduceSum sums one word across processors.
func (p *Proc) AllReduceSum(v uint64) uint64 { return p.AllReduceOp(v, OpSum) }

// AllReduceMax takes the maximum of one word across processors.
func (p *Proc) AllReduceMax(v uint64) uint64 { return p.AllReduceOp(v, OpMax) }

// FetchAdd atomically adds delta to the word at g and returns the previous
// value. Remote: one sync-class round trip; local: direct.
func (p *Proc) FetchAdd(g GPtr, delta uint64) uint64 {
	var v uint64
	p.wait(func() (wt sim.PollableWait) { v, wt = p.FetchAddT(g, delta); return })
	return v
}

// TryLock attempts to acquire the lock word at g (0 free, 1 held): a
// test-and-set, which is CompareSwap from 0 to 1.
func (p *Proc) TryLock(g GPtr) bool { return p.CompareSwap(g, 0, 1) }

// Lock spins on TryLock until it acquires g, as the paper's Barnes does —
// under high overhead this retry traffic is exactly what drives its
// livelock. Each failed local attempt costs a spin iteration and services
// the network (a spinning Split-C processor still polls, or remote
// test-and-set requests to it could never be answered); remote attempts
// are paced by their own round trips. FailedLockAttempts counts retries.
func (p *Proc) Lock(g GPtr) { p.wait(func() sim.PollableWait { return p.LockT(g) }) }

// Unlock releases the lock word at g with a pipelined store.
func (p *Proc) Unlock(g GPtr) { p.WriteWord(g, 0) }

// CompareSwap atomically replaces the word at g with next if it equals old,
// reporting success. Remote: one sync-class round trip; local: direct.
func (p *Proc) CompareSwap(g GPtr, old, next uint64) bool {
	var ok bool
	p.wait(func() (wt sim.PollableWait) { ok, wt = p.CompareSwapT(g, old, next); return })
	return ok
}
