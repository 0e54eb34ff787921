package trace

import (
	"repro/internal/am"
	"repro/internal/sim"
)

// 64-bit FNV-1a parameters.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Digest folds every message event of a run into one 64-bit FNV-1a hash,
// so two runs can be compared event for event without buffering either.
// Each MessageSent and MessageHandled folds the Event tuple (At, Src,
// Dst, Class, Bulk, Handled) in that order: At, Src and Dst as eight
// little-endian bytes each, then Class, Bulk and Handled as one byte
// each. Two runs with equal digests sent and handled the same messages
// at the same instants in the same order. The zero value is ready to
// attach; it allocates nothing.
type Digest struct {
	am.NopHooks
	h uint64
	n int64
}

var _ am.Hooks = (*Digest)(nil)

// MessageSent implements am.Hooks, folding the hand-off instant.
//
//repro:hotpath
func (d *Digest) MessageSent(e am.SendEvent) {
	d.fold(e.At, e.Src, e.Dst, e.Class, e.Bulk, false)
}

// MessageHandled implements am.Hooks.
//
//repro:hotpath
func (d *Digest) MessageHandled(src, dst int, class am.Class, bulk bool, at sim.Time) {
	d.fold(at, src, dst, class, bulk, true)
}

// Sum64 returns the hash of the events folded so far (the FNV-1a offset
// basis when there were none).
func (d *Digest) Sum64() uint64 {
	if d.n == 0 {
		return fnvOffset64
	}
	return d.h
}

// Events returns the number of events folded so far.
func (d *Digest) Events() int64 { return d.n }

//repro:hotpath
func (d *Digest) fold(at sim.Time, src, dst int, class am.Class, bulk, handled bool) {
	h := d.h
	if d.n == 0 {
		h = fnvOffset64
	}
	h = fnvWord(h, uint64(at))
	h = fnvWord(h, uint64(src))
	h = fnvWord(h, uint64(dst))
	h = fnvByte(h, byte(class))
	h = fnvByte(h, b2u(bulk))
	h = fnvByte(h, b2u(handled))
	d.h = h
	d.n++
}

func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v))
		v >>= 8
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}
