package service

import (
	"math/bits"
	"sort"
	"sync"
	"time"
)

// latHist is a log₂-bucketed latency histogram over microseconds:
// bucket i counts observations in [2^i, 2^(i+1)) µs, bucket 0 also
// holds sub-microsecond ones. 40 buckets reach ~12.7 days — effectively
// unbounded for an HTTP request.
type latHist struct {
	buckets [40]int64
	count   int64
	sumUs   int64
	maxUs   int64
}

func (h *latHist) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	idx := 0
	if us > 0 {
		idx = bits.Len64(uint64(us)) - 1
		if idx >= len(h.buckets) {
			idx = len(h.buckets) - 1
		}
	}
	h.buckets[idx]++
	h.count++
	h.sumUs += us
	if us > h.maxUs {
		h.maxUs = us
	}
}

// quantile returns an upper bound for the q-quantile (the upper edge of
// the bucket the quantile falls in, capped at the observed max).
func (h *latHist) quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	target := int64(q * float64(h.count))
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen > target {
			hi := int64(1) << uint(i+1)
			if hi > h.maxUs {
				hi = h.maxUs
			}
			return hi
		}
	}
	return h.maxUs
}

// LatencySummary is one endpoint's latency digest.
type LatencySummary struct {
	Count  int64 `json:"count"`
	MeanUs int64 `json:"mean_us"`
	P50Us  int64 `json:"p50_us"`
	P90Us  int64 `json:"p90_us"`
	P99Us  int64 `json:"p99_us"`
	MaxUs  int64 `json:"max_us"`
}

func (h *latHist) summary() LatencySummary {
	s := LatencySummary{Count: h.count, MaxUs: h.maxUs}
	if h.count > 0 {
		s.MeanUs = h.sumUs / h.count
	}
	s.P50Us = h.quantile(0.50)
	s.P90Us = h.quantile(0.90)
	s.P99Us = h.quantile(0.99)
	return s
}

// latencySet tracks one histogram per endpoint label.
type latencySet struct {
	mu sync.Mutex
	m  map[string]*latHist
}

func newLatencySet() *latencySet { return &latencySet{m: map[string]*latHist{}} }

func (ls *latencySet) observe(endpoint string, d time.Duration) {
	ls.mu.Lock()
	h := ls.m[endpoint]
	if h == nil {
		h = &latHist{}
		ls.m[endpoint] = h
	}
	h.observe(d)
	ls.mu.Unlock()
}

// snapshot summarizes every endpoint, in sorted label order.
func (ls *latencySet) snapshot() map[string]LatencySummary {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	labels := make([]string, 0, len(ls.m))
	for label := range ls.m {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	out := make(map[string]LatencySummary, len(labels))
	for _, label := range labels {
		out[label] = ls.m[label].summary()
	}
	return out
}

// StatsResponse is /v1/stats: the daemon's aggregate health view.
type StatsResponse struct {
	UptimeS  float64                   `json:"uptime_s"`
	Requests map[string]int64          `json:"requests"`
	Cache    CacheTotals               `json:"cache"`
	HitRate  float64                   `json:"hit_rate"`
	Sched    SchedStats                `json:"scheduler"`
	Latency  map[string]LatencySummary `json:"latency_us"`
	// Stages times the steps of a resolution: load (read an entry,
	// verify it, decode its head), decode (a stored result, once per
	// plan whose render reads it; a render of points decodes none), and
	// for a miss queue_wait, execute, persist.
	Stages   map[string]LatencySummary `json:"stages_us"`
	CacheDir string                    `json:"cache_dir"`
}

// CacheTotals aggregates resolution outcomes since daemon start; the
// Server counts into one under its lock.
type CacheTotals struct {
	DiskHits    int64 `json:"disk_hits"`         // served from the persistent store
	Computed    int64 `json:"computed"`          // executed on the worker pool
	Coalesced   int64 `json:"coalesced"`         // joined an identical in-flight run
	Corrupt     int64 `json:"corrupt_recovered"` // unreadable entries recovered by recompute
	Stale       int64 `json:"stale_recomputed"`  // entries of another format version recomputed
	WriteErrors int64 `json:"write_errors"`      // failed persistent writes (result still served)
	Rejected    int64 `json:"rejected"`          // resolutions refused with queue-full backpressure
	RunErrors   int64 `json:"run_errors"`        // runs that completed with an application error
}

// Stats snapshots the daemon's aggregate counters.
func (s *Server) Stats() StatsResponse {
	s.mu.Lock()
	c := s.counts
	reqs := make(map[string]int64, len(s.reqs))
	keys := make([]string, 0, len(s.reqs))
	for k := range s.reqs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		reqs[k] = s.reqs[k]
	}
	s.mu.Unlock()

	resp := StatsResponse{
		UptimeS:  time.Since(s.start).Seconds(),
		Requests: reqs,
		Cache:    c,
		Sched:    s.sched.Stats(),
		Latency:  s.lat.snapshot(),
		Stages:   s.stages.snapshot(),
		CacheDir: s.disk.Root(),
	}
	if total := c.DiskHits + c.Coalesced + c.Computed; total > 0 {
		resp.HitRate = float64(c.DiskHits+c.Coalesced) / float64(total)
	}
	return resp
}
