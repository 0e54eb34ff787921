// Package service is the simulation-as-a-service layer: an HTTP/JSON
// daemon (cmd/reprod) exposing the run-plan engine to many concurrent
// clients over one shared machine.
//
// Architecture (DESIGN.md §13):
//
//   - every run is addressed by its canonical run.Spec hash
//     (Spec.Hash(), a stability-pinned sha256 of the normalized spec);
//   - completed results live in a persistent content-addressed store on
//     disk (DiskStore): written atomically (temp file + rename),
//     loaded lazily, and verified on every read (lengths, checksum and
//     spec-hash match), so a crashed writer or a corrupted entry
//     degrades to a recompute, never to a wrong answer; a hit decodes
//     only the entry's small head, a full /v1/run answer forwards the
//     verified result bytes as they were stored, and a table decodes a
//     stored result only when its render reads it;
//   - misses execute on one shared bounded worker pool (Scheduler)
//     with fair round-robin scheduling across clients, admission
//     control (a bounded queue), and backpressure: when the queue is
//     full the request fails fast with 429 and a Retry-After hint;
//   - identical runs requested concurrently — by one client or many —
//     coalesce onto a single in-flight execution (the cross-request
//     twin of run.Store's singleflight);
//   - running plans can stream per-run progress over SSE, and /v1/stats
//     exposes hit rates, queue depth, executed-vs-deduped counters, and
//     latency histograms per endpoint and per stage of a resolution.
//
// The daemon sits outside the simulation boundary: it may use
// goroutines and wall-clock time freely (reprolint's sim scopes exclude
// it), but everything it persists or serves is a pure function of the
// Spec, so cached answers are byte-identical to freshly computed ones
// at any concurrency.
package service

import (
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/run"
)

// Config parameterizes a Server.
type Config struct {
	// CacheDir is the persistent result store's root directory.
	// Required: the cache is the point of the daemon.
	CacheDir string
	// Workers bounds concurrently executing simulations across all
	// clients; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// MaxQueue bounds runs admitted but not yet executing, across all
	// clients; beyond it requests fail with 429. 0 means 1024.
	MaxQueue int
	// Runner executes individual runs (machine parameters, app
	// resolution). Its Jobs field is ignored — the scheduler owns all
	// concurrency. Nil means the paper machine (logp.NOW()) with the
	// full app registry (paper suite + scale kernels).
	Runner *run.Runner
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) maxQueue() int {
	if c.MaxQueue > 0 {
		return c.MaxQueue
	}
	return 1024
}

// Server is the daemon: an http.Handler plus the shared scheduler,
// persistent store, and in-flight run table behind it.
type Server struct {
	runner *run.Runner
	disk   *DiskStore
	sched  *Scheduler

	mu       sync.Mutex
	inflight map[string]*flight
	counts   CacheTotals
	reqs     map[string]int64

	start  time.Time
	lat    *latencySet // whole requests, by endpoint
	stages *latencySet // the steps of a resolution, by stage
	mux    *http.ServeMux
}

// New builds a Server. The cache directory is created if missing.
func New(cfg Config) (*Server, error) {
	disk, err := NewDiskStore(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	r := cfg.Runner
	if r == nil {
		r = &run.Runner{}
	}
	s := &Server{
		runner:   r,
		disk:     disk,
		sched:    NewScheduler(cfg.workers(), cfg.maxQueue()),
		inflight: map[string]*flight{},
		reqs:     map[string]int64{},
		start:    time.Now(),
		lat:      newLatencySet(),
		stages:   newLatencySet(),
	}
	s.mux = s.routes()
	return s, nil
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the worker pool after the queued work drains. In-flight
// HTTP requests should be shut down first (http.Server.Shutdown).
func (s *Server) Close() { s.sched.Close() }

// countReq tallies one request against an endpoint label.
func (s *Server) countReq(endpoint string) {
	s.mu.Lock()
	s.reqs[endpoint]++
	s.mu.Unlock()
}
