package main

import (
	"crypto/sha256"
	"time"
)

// calibSink keeps the calibration loop's result alive.
var calibSink byte

// hostCalibMs times a fixed pure-Go loop in this process: pops from a
// 4-ary heap (the simulator's event queue shape: dependent loads and
// compares) and sha256 over a buffer (the daemon's verify and hash:
// straight-line arithmetic). It measures the host, not the repository —
// no code of the tree runs — so two sets of runs whose calibration
// differs are told apart from two commits that differ. The median of
// five repetitions is reported.
func hostCalibMs() float64 {
	const heapSize, pops, hashKB, hashes = 1 << 19, 1 << 18, 64, 128
	heap := make([]uint64, heapSize)
	buf := make([]byte, hashKB<<10)
	var times []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := range heap {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			heap[i] = x
		}
		for i := len(heap)/4 - 1; i >= 0; i-- {
			siftDown4(heap, i)
		}
		for i := 0; i < pops; i++ {
			// Replace the minimum with a new key and restore the heap.
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			heap[0] = x
			siftDown4(heap, 0)
		}
		var sum [32]byte
		for i := 0; i < hashes; i++ {
			buf[0] = sum[0] ^ byte(heap[0])
			sum = sha256.Sum256(buf)
		}
		calibSink = sum[0]
		times = append(times, float64(time.Since(start))/float64(time.Millisecond))
	}
	return median(times)
}

// siftDown4 restores the 4-ary min-heap property below i.
func siftDown4(h []uint64, i int) {
	for {
		first := 4*i + 1
		if first >= len(h) {
			return
		}
		least := first
		for c := first + 1; c < first+4 && c < len(h); c++ {
			if h[c] < h[least] {
				least = c
			}
		}
		if h[i] <= h[least] {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
