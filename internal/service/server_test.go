package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/suite"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/run"
)

// newTestServer boots a daemon on a fresh cache directory plus an
// httptest frontend, and returns a typed client bound to it.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, &Client{BaseURL: ts.URL, ID: "test", HTTP: ts.Client()}
}

func quickFig5bOptions() OptionsJSON {
	return OptionsJSON{Procs: 8, Scale: 1.0 / 2048, Seed: 1, Quick: true, Apps: []string{"radix"}}
}

// offlineText is experiment id rendered under o as cmd/repro renders it.
func offlineText(t *testing.T, id string, o OptionsJSON) string {
	t.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(o.options())
	if err != nil {
		t.Fatal(err)
	}
	return tab.Text()
}

// TestServiceFig5bByteIdentity is the tentpole acceptance check: the
// served fig5b table must match the offline render byte for byte, cold
// (all computed) and warm (all from the persistent cache).
func TestServiceFig5bByteIdentity(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 4})
	ctx := context.Background()

	fig5b, err := exp.ByID("fig5b")
	if err != nil {
		t.Fatal(err)
	}
	offline, err := fig5b.Run(quickFig5bOptions().options())
	if err != nil {
		t.Fatal(err)
	}

	req := ExperimentRequest{ID: "fig5b", Options: quickFig5bOptions()}
	cold, err := c.Experiment(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Text != offline.Text() {
		t.Errorf("cold served table differs from offline render:\n--- offline\n%s--- served\n%s", offline.Text(), cold.Text)
	}
	if cold.Cache.Computed != cold.Cache.Total || cold.Cache.DiskHits != 0 {
		t.Errorf("cold cache counts = %+v, want all computed", cold.Cache)
	}
	if cold.CSV != offline.CSV() {
		t.Error("cold served CSV differs from offline render")
	}

	warm, err := c.Experiment(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.DiskHits != warm.Cache.Total || warm.Cache.Computed != 0 {
		t.Errorf("warm cache counts = %+v, want 100%% disk hits", warm.Cache)
	}
	if warm.Text != cold.Text {
		t.Errorf("warm reply not byte-identical to cold:\n--- cold\n%s--- warm\n%s", cold.Text, warm.Text)
	}
	if warm.CSV != cold.CSV {
		t.Error("warm CSV not byte-identical to cold")
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.HitRate <= 0 {
		t.Errorf("hit rate = %v after a warm pass, want > 0", st.HitRate)
	}
	if st.Requests["experiment"] != 2 {
		t.Errorf("experiment requests = %d, want 2", st.Requests["experiment"])
	}
	if _, ok := st.Latency["experiment"]; !ok {
		t.Error("no latency histogram for experiment endpoint")
	}
}

// TestServiceWarmTablesMatchOffline serves tables cold and warm on a
// fresh cache each, and pins both their text, byte for byte the offline
// render's, and what a warm pass decodes: nothing for a table made of
// points (fig5b, ext-tradeoff), and each result the render reads once
// for one that reads results (each app's baseline, for table4, fig4 and
// tolerance).
func TestServiceWarmTablesMatchOffline(t *testing.T) {
	opts := quickFig5bOptions()
	opts.Apps = []string{"radix", "nowsort"}
	ctx := context.Background()
	for _, tc := range []struct {
		id      string
		results int // distinct specs the render passes to Store.Result
	}{
		{"fig5b", 0},
		{"ext-tradeoff", 0},
		{"table4", len(opts.Apps)},
		{"fig4", len(opts.Apps)},
		{"tolerance", len(opts.Apps)},
	} {
		t.Run(tc.id, func(t *testing.T) {
			s, c := newTestServer(t, Config{Workers: 2})
			offline := offlineText(t, tc.id, opts)
			for _, warm := range []bool{false, true} {
				before := s.Stats().Stages["decode"].Count
				r, err := c.Experiment(ctx, ExperimentRequest{ID: tc.id, Options: opts})
				if err != nil {
					t.Fatalf("warm=%v: %v", warm, err)
				}
				if r.Text != offline {
					t.Errorf("warm=%v table differs from offline render:\n--- offline\n%s--- served\n%s", warm, offline, r.Text)
				}
				want, decodes := CacheCounts{Total: r.Cache.Total, Computed: r.Cache.Total}, 0
				if warm {
					want, decodes = CacheCounts{Total: r.Cache.Total, DiskHits: r.Cache.Total}, tc.results
				}
				if r.Cache != want {
					t.Errorf("warm=%v cache counts = %+v, want %+v", warm, r.Cache, want)
				}
				if got := s.Stats().Stages["decode"].Count - before; got != int64(decodes) {
					t.Errorf("warm=%v pass decoded %d stored results, want %d", warm, got, decodes)
				}
			}
		})
	}
}

// TestServiceRunEndpoint exercises /v1/run for a baseline and a swept
// spec, cold and warm, and the minimal-response flag.
func TestServiceRunEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	base := RunRequest{SpecJSON: SpecJSON{App: "radix", Procs: 4, Scale: 1.0 / 4096, Seed: 1}}
	r1, err := c.Run(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Source != SourceComputed || r1.Cached {
		t.Fatalf("cold run source = %q cached=%v, want computed", r1.Source, r1.Cached)
	}
	if r1.Result == nil || r1.Point.Slowdown != 1 {
		t.Fatalf("baseline response incomplete: %+v", r1)
	}

	r2, err := c.Run(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != SourceDisk || !r2.Cached {
		t.Fatalf("warm run source = %q, want disk", r2.Source)
	}
	if r2.Hash != r1.Hash || r2.ElapsedNs != r1.ElapsedNs {
		t.Fatalf("warm run differs: %+v vs %+v", r2, r1)
	}

	// A swept spec that has to run auto-resolves its baseline (already
	// cached here).
	sweep := RunRequest{
		SpecJSON: SpecJSON{App: "radix", Procs: 4, Scale: 1.0 / 4096, Seed: 1, Knob: "o", Value: 25},
		Minimal:  true,
	}
	r3, err := c.Run(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Source != SourceComputed {
		t.Fatalf("cold sweep source = %q", r3.Source)
	}
	if r3.Result != nil {
		t.Fatal("minimal response still carries the full result")
	}
	if r3.Point.Slowdown <= 0 {
		t.Fatalf("sweep slowdown = %v", r3.Point.Slowdown)
	}
}

// TestServiceRunReadsWhatItServes walks /v1/run through every way a
// point and its baseline can be cold, warm, missing or damaged, and pins
// what each request reads by what it moves in /v1/stats: a stored point
// is one load whatever became of its baseline, a point that has to be
// computed looks its baseline up exactly once, a hit that carries the
// result carries the one that was computed, and a stored result that
// does not decode is recomputed by the render that reads it, not served
// and not a 500, while a plan that reads only its head serves it. (A
// full /v1/run hit forwards the sealed result without decoding it;
// TestServiceForwardsWhatItComputed pins those bytes.)
func TestServiceRunReadsWhatItServes(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	spec := func(knob string, value float64) SpecJSON {
		return SpecJSON{App: "radix", Procs: 4, Scale: 1.0 / 4096, Seed: 1, Knob: knob, Value: value}
	}
	baseline, pointA, pointB := spec("", 0), spec("o", 25), spec("o", 5)
	baseSpec, err := baseline.Spec()
	if err != nil {
		t.Fatal(err)
	}
	basePath := s.disk.entryPath(baseSpec.Hash())

	var computed *RunResponse // pointB's answer from the run itself
	checkRun := func(name string, spec SpecJSON, minimal bool, source string) {
		r, err := c.Run(ctx, RunRequest{SpecJSON: spec, Minimal: minimal})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Source != source || r.Cached != (source != SourceComputed) {
			t.Errorf("%s: source = %q cached=%v, want %q", name, r.Source, r.Cached, source)
		}
		if r.ElapsedNs <= 0 || r.Point.Slowdown <= 0 {
			t.Errorf("%s: answer incomplete: %+v", name, r)
		}
		if (r.Result == nil) != minimal {
			t.Errorf("%s: minimal=%v but result present=%v", name, minimal, r.Result != nil)
		}
		if spec == pointB {
			if computed == nil {
				computed = r
			} else if !reflect.DeepEqual(r.Result, computed.Result) || r.Point != computed.Point || r.ElapsedNs != computed.ElapsedNs {
				t.Errorf("%s: a hit's result differs from the computed one:\n hit      %+v\n computed %+v", name, r.Result, computed.Result)
			}
		}
	}
	checkSweep := func(name string, spec SpecJSON) {
		sw, err := c.Sweep(ctx, SweepRequest{
			App: spec.App, Procs: spec.Procs, Scale: spec.Scale, Seed: spec.Seed,
			Knob: pointA.Knob, Values: []float64{pointA.Value},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sw.BaseHash != baseSpec.Hash() || sw.Baseline.ElapsedNs <= 0 {
			t.Errorf("%s: baseline answer %+v (hash %s)", name, sw.Baseline, sw.BaseHash)
		}
	}
	// table4 over spec's one app plans spec alone and renders its full
	// result.
	checkTable := func(name string, spec SpecJSON) {
		opts := OptionsJSON{Procs: spec.Procs, Scale: spec.Scale, Seed: spec.Seed, Apps: []string{spec.App}}
		r, err := c.Experiment(ctx, ExperimentRequest{ID: "table4", Options: opts})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if offline := offlineText(t, "table4", opts); r.Text != offline {
			t.Errorf("%s: served table differs from offline render:\n--- offline\n%s--- served\n%s", name, offline, r.Text)
		}
		if want := (CacheCounts{Total: 1, Computed: 1}); r.Cache != want {
			t.Errorf("%s: cache counts %+v, want %+v", name, r.Cache, want)
		}
	}
	var before CacheTotals
	for _, step := range []struct {
		name    string
		prepare func()
		spec    SpecJSON
		minimal bool
		// Ask for spec as the baseline of a /v1/sweep of pointA, or as
		// the one run of a table4; by default as a /v1/run.
		sweep, table bool
		source       string
		// What the request moves in /v1/stats.
		hits, computed, corrupt int64
	}{
		{name: "cold point, cold baseline: both run", spec: pointA, minimal: true, source: SourceComputed, computed: 2},
		{name: "cold point, warm baseline: one look-up", spec: pointB, source: SourceComputed, hits: 1, computed: 1},
		{name: "warm point: one load", spec: pointA, minimal: true, source: SourceDisk, hits: 1},
		{name: "warm point with its result", spec: pointB, source: SourceDisk, hits: 1},
		{
			name: "undecodable result, head asked: served",
			prepare: func() {
				raw, err := os.ReadFile(basePath)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(basePath, reseal(t, raw, `"Procs":4`, `"Procs":"four"`), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			spec: baseline, minimal: true, source: SourceDisk, hits: 1,
		},
		// A plan decodes only the results its render reads. A sweep reads
		// its baseline's head and pointA's, both hits.
		{name: "undecodable result, a sweep reads its head: served", spec: baseline, sweep: true, hits: 2},
		// table4 reads the result: the probe finds a verified entry (a
		// hit) before the result in it turns out not to be one.
		{name: "undecodable result, a table reads it: recomputed", spec: baseline, table: true, hits: 1, computed: 1, corrupt: 1},
		{name: "recomputed entry overwrote the bad one", spec: baseline, source: SourceDisk, hits: 1},
		{
			name: "warm point, baseline gone: still one load",
			prepare: func() {
				if err := os.Remove(basePath); err != nil {
					t.Fatal(err)
				}
			},
			spec: pointA, minimal: true, source: SourceDisk, hits: 1,
		},
	} {
		if step.prepare != nil {
			step.prepare()
		}
		switch {
		case step.sweep:
			checkSweep(step.name, step.spec)
		case step.table:
			checkTable(step.name, step.spec)
		default:
			checkRun(step.name, step.spec, step.minimal, step.source)
		}
		after := s.Stats().Cache
		if d := [3]int64{after.DiskHits - before.DiskHits, after.Computed - before.Computed, after.Corrupt - before.Corrupt}; d != [3]int64{step.hits, step.computed, step.corrupt} {
			t.Errorf("%s: moved disk_hits, computed, corrupt_recovered by %v, want [%d %d %d]",
				step.name, d, step.hits, step.computed, step.corrupt)
		}
		before = after
	}

	// Every stage of those resolutions left a histogram beside the
	// per-endpoint ones.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"load", "decode", "queue_wait", "execute", "persist"} {
		if st.Stages[stage].Count == 0 {
			t.Errorf("no %q samples in /v1/stats stages_us: %+v", stage, st.Stages)
		}
	}
	if got := st.Stages["execute"].Count; got != st.Cache.Computed {
		t.Errorf("execute samples = %d, computed = %d: want one per run", got, st.Cache.Computed)
	}
}

// TestServiceCoalesce pins the singleflight behavior: two concurrent
// requests for one cold spec execute it once; the second waiter is
// reported as coalesced.
func TestServiceCoalesce(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	spec := run.Baseline("radix", 4, 1.0/4096, 1, false)
	hash := spec.Hash()

	// Occupy the only worker so the flight stays open until we release.
	running := make(chan struct{})
	release := make(chan struct{})
	if err := s.sched.Submit("gate", func() { close(running); <-release }); err != nil {
		t.Fatal(err)
	}
	<-running

	type res struct {
		src string
		err error
	}
	results := make(chan res, 2)
	resolveOne := func(client string) {
		_, _, src, err := s.resolve(ctx, client, spec, hash, nil)
		results <- res{src, err}
	}
	go resolveOne("a")
	// Wait until the first resolution owns the flight, then join it.
	for {
		s.mu.Lock()
		_, ok := s.inflight[hash]
		s.mu.Unlock()
		if ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	go resolveOne("b")
	close(release)

	srcs := map[string]int{}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		srcs[r.src]++
	}
	if srcs[SourceComputed] != 1 || srcs[SourceCoalesced] != 1 {
		t.Fatalf("sources = %v, want one computed + one coalesced", srcs)
	}
	s.mu.Lock()
	coalesced := s.counts.Coalesced
	computed := s.counts.Computed
	s.mu.Unlock()
	if coalesced != 1 || computed != 1 {
		t.Fatalf("counters: coalesced=%d computed=%d, want 1/1", coalesced, computed)
	}
}

// TestServiceBackpressure drives the daemon into queue-full and checks
// the HTTP contract: 429, a Retry-After hint, and a successful retry
// once capacity frees up.
func TestServiceBackpressure(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, MaxQueue: 1})
	ctx := context.Background()

	running := make(chan struct{})
	release := make(chan struct{})
	if err := s.sched.Submit("gate", func() { close(running); <-release }); err != nil {
		t.Fatal(err)
	}
	<-running
	// Fill the whole admission queue.
	if err := s.sched.Submit("filler", func() {}); err != nil {
		t.Fatal(err)
	}

	_, err := c.Run(ctx, RunRequest{SpecJSON: SpecJSON{App: "radix", Procs: 4, Scale: 1.0 / 4096, Seed: 1}})
	re, ok := err.(*RetryError)
	if !ok {
		t.Fatalf("err = %v, want *RetryError", err)
	}
	if re.After < time.Second || re.After > 30*time.Second {
		t.Fatalf("Retry-After = %v, want within [1s, 30s]", re.After)
	}

	close(release)
	// Honor the hint the way a polite client would, but poll faster to
	// keep the test quick — capacity is free as soon as the gate drops.
	var got *RunResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err = c.Run(ctx, RunRequest{SpecJSON: SpecJSON{App: "radix", Procs: 4, Scale: 1.0 / 4096, Seed: 1}})
		if err == nil {
			break
		}
		if _, retry := err.(*RetryError); !retry || time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got.Source != SourceComputed {
		t.Fatalf("retry source = %q, want computed", got.Source)
	}

	st := s.Stats()
	if st.Cache.Rejected == 0 {
		t.Errorf("stats rejected = 0, want > 0: %+v", st.Cache)
	}
}

// TestServiceSweepSSE streams a sweep and checks the event protocol:
// one progress event per run with a monotonic done counter, then a
// result event whose body matches the non-streaming response.
func TestServiceSweepSSE(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	sweepReq := SweepRequest{
		App: "radix", Procs: 4, Scale: 1.0 / 4096, Seed: 1,
		Knob: "o", Values: []float64{0, 25},
	}
	plain, err := c.Sweep(ctx, sweepReq)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(plain.Points))
	}
	// Δo = 0 included: the daemon simulates it under its own address (a
	// disk-hit baseline carries no result to answer it from), unlike
	// run.Runner's pool.
	for i, p := range plain.Points {
		if p.Source != SourceComputed || p.Hash == plain.BaseHash {
			t.Fatalf("cold point %d source = %q, hash %s (baseline %s); want a simulation of its own", i, p.Source, p.Hash, plain.BaseHash)
		}
	}
	if plain.Points[0].Slowdown != 1 {
		t.Fatalf("Δo = 0 slowdown = %v, want 1", plain.Points[0].Slowdown)
	}

	body, err := json.Marshal(sweepReq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.httpClient().Post(c.BaseURL+"/v1/sweep?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var progress []PlanEvent
	var result *SweepResponse
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				var ev PlanEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatal(err)
				}
				progress = append(progress, ev)
			case "result":
				result = &SweepResponse{}
				if err := json.Unmarshal([]byte(data), result); err != nil {
					t.Fatal(err)
				}
			case "error":
				t.Fatalf("stream error event: %s", data)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// 3 runs: baseline + 2 points (all warm from the plain request).
	if len(progress) != 3 {
		t.Fatalf("progress events = %d, want 3", len(progress))
	}
	for i, ev := range progress {
		if ev.Done != i+1 || ev.Total != 3 {
			t.Fatalf("event %d = %+v, want done=%d total=3", i, ev, i+1)
		}
		if ev.Err != "" {
			t.Fatalf("event %d carries error %q", i, ev.Err)
		}
	}
	if result == nil {
		t.Fatal("no result event")
	}
	if result.BaseHash != plain.BaseHash || len(result.Points) != len(plain.Points) {
		t.Fatalf("streamed result differs from plain: %+v vs %+v", result, plain)
	}
	for i := range result.Points {
		if result.Points[i].Hash != plain.Points[i].Hash || result.Points[i].Slowdown != plain.Points[i].Slowdown {
			t.Fatalf("streamed point %d differs: %+v vs %+v", i, result.Points[i], plain.Points[i])
		}
	}
}

// gatedApp is a fake application that announces each run as app/base or
// app/point and, for an app with a gate, holds its baseline until the
// gate closes. Only Name and Run are called on the run path.
type gatedApp struct {
	apps.App
	name    string
	started chan<- string
	gate    chan struct{}
}

func (a gatedApp) Name() string { return a.name }

func (a gatedApp) Run(cfg apps.Config) (apps.Result, error) {
	if cfg.TimeLimit != 0 { // only swept runs carry a livelock bound
		a.started <- a.name + "/point"
	} else {
		a.started <- a.name + "/base"
		if a.gate != nil {
			<-a.gate
		}
	}
	return apps.Result{App: a.name, Procs: cfg.Procs, Elapsed: 1000}, nil
}

// newGatedServer serves the gated apps; gates maps an app to its gate.
func newGatedServer(t *testing.T, gates map[string]chan struct{}) (*Server, <-chan string) {
	// Room for every run a test plan starts, so a worker never blocks
	// announcing a run the test no longer reads.
	started := make(chan string, 16)
	resolve := func(name string) (apps.App, error) {
		return gatedApp{name: name, started: started, gate: gates[name]}, nil
	}
	s, _ := newTestServer(t, Config{Workers: 2, Runner: &run.Runner{Resolve: resolve}})
	// Open any gate a failed test left shut before the server drains.
	t.Cleanup(func() {
		for _, gate := range gates {
			select {
			case <-gate:
			default:
				close(gate)
			}
		}
	})
	return s, started
}

// gatedPlan sweeps Δo = 5 and 9 for each app.
func gatedPlan(names ...string) *run.Plan {
	p := run.NewPlan()
	for _, app := range names {
		for _, v := range []float64{5, 9} {
			p.AddSweep(run.Spec{App: app, Procs: 2, Scale: 1, Seed: 1, Knob: core.KnobO, Value: v}, false)
		}
	}
	return p
}

// nextRun is the next run to start; a plan that stalls fails the test.
func nextRun(t *testing.T, started <-chan string) string {
	t.Helper()
	select {
	case r := <-started:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("no run started")
		return ""
	}
}

// TestPlanSweepWaitsForItsOwnBaseline: with b's baseline held, a's swept
// points start anyway; b's start only after b's baseline returns.
func TestPlanSweepWaitsForItsOwnBaseline(t *testing.T) {
	gate := make(chan struct{})
	s, started := newGatedServer(t, map[string]chan struct{}{"b": gate})
	done := make(chan error, 1)
	go func() {
		_, err := s.executePlan(context.Background(), "test", gatedPlan("a", "b"), nil)
		done <- err
	}()
	seen := map[string]int{}
	for seen["a/point"] < 2 || seen["b/base"] < 1 {
		r := nextRun(t, started)
		if r == "b/point" {
			t.Fatal("b's point started while b's baseline was held")
		}
		seen[r]++
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if r := nextRun(t, started); r != "b/point" {
			t.Fatalf("%s started after b's baseline returned, want b/point", r)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestPlanCancelWhileBaselineHeld: a request canceled while its only
// baseline is held returns the cancellation and submits none of the
// swept runs that waited on it.
func TestPlanCancelWhileBaselineHeld(t *testing.T) {
	s, started := newGatedServer(t, map[string]chan struct{}{"b": make(chan struct{})})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started // b/base is executing
		cancel()
	}()
	if _, err := s.executePlan(ctx, "test", gatedPlan("b"), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("executePlan = %v, want context.Canceled", err)
	}
	if n := s.sched.Stats().Submitted; n != 1 {
		t.Errorf("submitted %d runs, want 1: the held baseline alone", n)
	}
}

// TestPlanRefusedBaselineStartsNoPoint: a sweep whose baseline meets a
// full queue answers 429 with a Retry-After hint, and none of its points
// is submitted after it.
func TestPlanRefusedBaselineStartsNoPoint(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, MaxQueue: 1})
	running := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if err := s.sched.Submit("gate", func() { close(running); <-release }); err != nil {
		t.Fatal(err)
	}
	<-running
	if err := s.sched.Submit("filler", func() {}); err != nil {
		t.Fatal(err)
	}
	before := s.sched.Stats().Submitted

	body := `{"app":"radix","procs":4,"scale":0.000244140625,"seed":1,"knob":"o","values":[0,5,25]}`
	resp, err := c.httpClient().Post(c.BaseURL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 429 || resp.Header.Get("Retry-After") == "" {
		t.Errorf("status %d, Retry-After %q; want 429 with a hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	st := s.Stats()
	if st.Cache.Rejected != 1 {
		t.Errorf("rejected = %d, want 1: the baseline alone", st.Cache.Rejected)
	}
	if n := st.Sched.Submitted; n != before {
		t.Errorf("the sweep submitted %d runs after its baseline was refused", n-before)
	}
}

// TestServiceBadRequests pins the admission boundary: a request the
// client got wrong — malformed, oversized, naming an app no resolver
// knows, a machine with no processor or no input, or a knob setting that
// describes no machine — answers 4xx with a JSON error before anything
// is queued, so the daemon's own error counter stays at zero; a route
// that is gone is a plain 404.
func TestServiceBadRequests(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	const unknownApp = `"app":"no-such-app","procs":4,"scale":0.001,"seed":1`
	for _, tc := range []struct {
		name, path, body string
		want             int
		errHas           string
	}{
		{"missing app", "/v1/run", `{"app":"","procs":4,"scale":1}`, 400, "missing app"},
		{"bad knob", "/v1/run", `{"app":"radix","procs":4,"scale":0.001,"knob":"zz"}`, 400, "zz"},
		{"unknown field", "/v1/run", `{"app":"radix","procs":4,"scale":0.001,"bogus":1}`, 400, "bogus"},
		{"sweep without values", "/v1/sweep", `{"app":"radix","procs":4,"scale":0.001,"knob":"o"}`, 400, "values"},
		{"sweep without a knob", "/v1/sweep", `{"app":"radix","procs":4,"scale":0.001,"values":[1]}`, 400, "knob"},
		{"unknown experiment", "/v1/experiment", `{"id":"no-such-figure"}`, 400, "no-such-figure"},
		{"unknown app: run", "/v1/run", `{` + unknownApp + `}`, 400, "have ["},
		{"unknown app: measured sweep", "/v1/sweep", `{` + unknownApp + `,"knob":"o","values":[1,2]}`, 400, "have ["},
		{"analytic field is gone", "/v1/sweep", `{"app":"radix","procs":4,"scale":0.001,"knob":"o","values":[1,2],"analytic":true}`, 400, "analytic"},
		{"blk kernel is gone", "/v1/run", `{"app":"scale-pray-blk","procs":4,"scale":0.001,"seed":1}`, 400, "have ["},
		{"negative procs: sweep", "/v1/sweep", `{"app":"radix","procs":-1,"scale":0.001,"knob":"o","values":[1]}`, 400, "procs"},
		{"negative procs: experiment", "/v1/experiment", `{"id":"fig5b","options":{"procs":-2,"scale":0.001,"quick":true,"apps":["radix"]}}`, 400, "procs"},
		{"negative scale: sweep", "/v1/sweep", `{"app":"radix","procs":4,"scale":-1,"knob":"o","values":[1]}`, 400, "scale"},
		{"sweep without procs", "/v1/sweep", `{"app":"radix","scale":0.001,"knob":"o","values":[1]}`, 400, "procs"},
		{"depgraph field is gone", "/v1/run", `{"app":"radix","procs":4,"scale":0.001,"depgraph":true}`, 400, "depgraph"},
		{"negative overhead", "/v1/run", `{"app":"radix","procs":4,"scale":0.001,"knob":"o","value":-5}`, 400, "negative delta"},
		{"overhead past the clock", "/v1/run", `{"app":"radix","procs":4,"scale":0.001,"knob":"o","value":1e300}`, 400, "out of range"},
		{"negative bandwidth", "/v1/sweep", `{"app":"radix","procs":4,"scale":0.001,"knob":"bw","values":[-3]}`, 400, "negative bandwidth"},
		{"tolerance route is gone", "/v1/tolerance", `{` + unknownApp + `}`, 404, ""},
		{"oversized body", "/v1/run", `{"app":"` + strings.Repeat("x", maxBodyBytes) + `"}`, 413, "too large"},
	} {
		resp, err := c.httpClient().Post(c.BaseURL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var e ErrorResponse
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d (%s), want %d", tc.name, resp.StatusCode, e.Error, tc.want)
		}
		if tc.errHas != "" && (derr != nil || !strings.Contains(e.Error, tc.errHas)) {
			t.Errorf("%s: error body = %q (decode: %v), want JSON naming %q", tc.name, e.Error, derr, tc.errHas)
		}
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.RunErrors != 0 || st.Cache.Computed != 0 {
		t.Errorf("bad requests reached the pool: run_errors = %d, computed = %d, want 0 and 0",
			st.Cache.RunErrors, st.Cache.Computed)
	}
}

// TestServiceRefusesWhatCannotRun holds admission to run.Runner.Check:
// a spec the run itself would refuse, or would silently run as another
// run, is a 400 naming the field, and no worker is handed it.
func TestServiceRefusesWhatCannotRun(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	before := s.sched.Stats().Submitted

	const spec = `"app":"radix","procs":4,"scale":0.0001,"seed":1`
	for _, tc := range []struct {
		name, body, errHas string
	}{
		{"unknown collective", `{` + spec + `,"coll":{"barrier":"nope"}}`, "barrier"},
		{"lossy wire without reliable", `{` + spec + `,"fault":{"drop_prob":0.5}}`, "Reliability"},
		{"drop probability above 1", `{` + spec + `,"fault":{"drop_prob":2,"reliable":true}}`, "Prob"},
		{"negative drop probability", `{` + spec + `,"fault":{"drop_prob":-0.5,"reliable":true}}`, "Prob"},
		{"negative delay", `{` + spec + `,"fault":{"delay_us":-5}}`, "Extra"},
		{"delay on a missing processor", `{` + spec + `,"fault":{"delay_proc":99}}`, "delay_proc"},
		{"delay fraction below 0", `{` + spec + `,"fault":{"delay_at_frac":-3}}`, "delay_at_frac"},
		{"scale past the ceiling", `{"app":"radix","procs":4,"scale":1e300,"seed":1}`, "scale"},
		{"negative scale", `{"app":"radix","procs":4,"scale":-1,"seed":1}`, "scale"},
		{"no processors", `{"app":"radix","procs":0,"scale":0.0001,"seed":1}`, "procs"},
		{"negative overhead", `{` + spec + `,"knob":"o","value":-2}`, "negative delta"},
		{"cpu speedup past the clock", `{` + spec + `,"cpu_speedup":1e-300}`, "CPU speedup"},
	} {
		resp, err := c.httpClient().Post(c.BaseURL+"/v1/run", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var e ErrorResponse
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != 400 || derr != nil || !strings.Contains(e.Error, tc.errHas) {
			t.Errorf("%s: status %d, error %q (decode: %v), want 400 naming %q", tc.name, resp.StatusCode, e.Error, derr, tc.errHas)
		}
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.RunErrors != 0 || st.Sched.Submitted != before {
		t.Errorf("refused specs reached the pool: run_errors = %d, submitted %d → %d",
			st.Cache.RunErrors, before, st.Sched.Submitted)
	}
}

// TestServicePersistsAcrossRestart pins the "persistent" in persistent
// cache: a new daemon over the same directory serves the old answers.
func TestServicePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := ExperimentRequest{ID: "fig5b", Options: quickFig5bOptions()}

	_, c1 := newTestServer(t, Config{Workers: 4, CacheDir: dir})
	cold, err := c1.Experiment(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	_, c2 := newTestServer(t, Config{Workers: 4, CacheDir: dir})
	warm, err := c2.Experiment(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.DiskHits != warm.Cache.Total {
		t.Fatalf("restarted daemon cache counts = %+v, want 100%% disk hits", warm.Cache)
	}
	if warm.Text != cold.Text {
		t.Error("restarted daemon's table not byte-identical")
	}
}

// TestServiceConcurrentMixedLoad fires many concurrent requests with
// mixed hot and cold keys through the full HTTP stack (run under -race
// in CI): every response must be consistent for its key.
func TestServiceConcurrentMixedLoad(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 4})
	ctx := context.Background()

	seeds := []int64{1, 2, 3}
	var wg sync.WaitGroup
	type obs struct {
		seed int64
		hash string
		ns   int64
	}
	results := make(chan obs, 64)
	errs := make(chan error, 64)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := &Client{BaseURL: c.BaseURL, ID: "client-" + strconv.Itoa(i%4), HTTP: c.HTTP}
			seed := seeds[i%len(seeds)]
			for {
				r, err := cl.Run(ctx, RunRequest{
					SpecJSON: SpecJSON{App: "radix", Procs: 4, Scale: 1.0 / 4096, Seed: seed},
					// Both kinds of waiter meet on the same flights: one
					// reads the head, the other decodes the result.
					Minimal: i%2 == 0,
				})
				if err != nil {
					if _, retry := err.(*RetryError); retry {
						time.Sleep(5 * time.Millisecond)
						continue
					}
					errs <- err
					return
				}
				if (r.Result == nil) != (i%2 == 0) || (r.Result != nil && int64(r.Result.Elapsed) != r.ElapsedNs) {
					errs <- fmt.Errorf("request %d: result %+v does not fit the answer %+v", i, r.Result, r)
					return
				}
				results <- obs{seed, r.Hash, r.ElapsedNs}
				return
			}
		}(i)
	}
	wg.Wait()
	close(results)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	byShard := map[int64]obs{}
	n := 0
	for o := range results {
		n++
		if prev, ok := byShard[o.seed]; ok {
			if prev.hash != o.hash || prev.ns != o.ns {
				t.Fatalf("seed %d answers diverge: %+v vs %+v", o.seed, prev, o)
			}
		} else {
			byShard[o.seed] = o
		}
	}
	if n != 24 {
		t.Fatalf("got %d responses, want 24", n)
	}
}

// TestServiceForwardsWhatItComputed pins the forwarded full answer: for
// every paper app, a profiled run and a faulted run, a full /v1/run hit's
// body is the miss's byte for byte apart from wall_us, source and cached,
// and the result Client decodes from a hit is the in-process run's.
func TestServiceForwardsWhatItComputed(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	runner := &run.Runner{Resolve: exp.ResolveApp}

	var specs []SpecJSON
	for _, app := range suite.Names() {
		specs = append(specs, SpecJSON{App: app, Procs: 4, Scale: 1.0 / 4096, Seed: 1})
	}
	specs = append(specs,
		SpecJSON{App: "radix", Procs: 4, Scale: 1.0 / 4096, Seed: 1, Profile: true},
		SpecJSON{App: "radix", Procs: 4, Scale: 1.0 / 4096, Seed: 1, Fault: &FaultJSON{DropProb: 0.05, Reliable: true}},
	)
	// The three members that say how an answer was made, not what it is.
	how := regexp.MustCompile(`"source":"[a-z]+","cached":(true|false),"wall_us":[0-9]+`)
	post := func(body []byte) []byte {
		resp, err := c.httpClient().Post(c.BaseURL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("status %d (err %v): %s", resp.StatusCode, err, raw)
		}
		return raw
	}
	for _, sj := range specs {
		body, err := json.Marshal(RunRequest{SpecJSON: sj})
		if err != nil {
			t.Fatal(err)
		}
		miss, hit := post(body), post(body)
		if !bytes.Contains(miss, []byte(`"source":"computed"`)) || !bytes.Contains(hit, []byte(`"source":"disk"`)) {
			t.Fatalf("%s: want a computed answer, then a disk hit:\n%.200s\n%.200s", sj.App, miss, hit)
		}
		if m, h := how.ReplaceAll(miss, nil), how.ReplaceAll(hit, nil); !bytes.Equal(m, h) {
			t.Errorf("%+v: the hit's body is not the miss's:\n miss %s\n hit  %s", sj, m, h)
		}

		r, err := c.Run(ctx, RunRequest{SpecJSON: sj})
		if err != nil {
			t.Fatal(err)
		}
		spec, err := sj.Spec()
		if err != nil {
			t.Fatal(err)
		}
		want := runner.ExecBaseline(spec.BaselineSpec(false))
		if !spec.IsBaseline() { // the fault spec
			want = runner.ExecSweep(spec, want)
		}
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		if r.Source != SourceDisk || r.Result == nil || !sameResult(*r.Result, want.Res) {
			t.Errorf("%+v: %s answer decodes to\n %+v\nwant the in-process run's\n %+v", sj, r.Source, r.Result, want.Res)
		}
	}
}

// sameResult is reflect.DeepEqual over two results, except that Stats
// compare by processor count and exported fields: a Stats' in-run
// bookkeeping (each processor's previous send) is not part of a result
// and does not travel (internal/am/statsjson.go).
func sameResult(a, b apps.Result) bool {
	as, bs := a.Stats, b.Stats
	a.Stats, b.Stats = nil, nil
	if !reflect.DeepEqual(a, b) || (as == nil) != (bs == nil) {
		return false
	}
	if as == nil {
		return true
	}
	av, bv := reflect.ValueOf(as).Elem(), reflect.ValueOf(bs).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Type().Field(i).IsExported() && !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			return false
		}
	}
	return as.P() == bs.P()
}

// TestServiceRecomputesStaleAndCorruptEntries: an entry of the previous
// format is never misread — it is recomputed once, counted as
// stale_recomputed, and overwritten, so the next request is a disk hit —
// while a damaged entry of this format counts as corrupt_recovered.
func TestServiceRecomputesStaleAndCorruptEntries(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	spec := run.Baseline("radix", 4, 1.0/4096, 1, true) // entryV1's run
	path := s.disk.entryPath(spec.Hash())
	v1, err := os.ReadFile(entryV1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	var before CacheTotals
	for _, step := range []struct {
		name    string
		prepare func()
		source  string
		// What the request moves in /v1/stats.
		hits, computed, corrupt, stale int64
	}{
		{name: "v1 entry: recomputed", source: SourceComputed, computed: 1, stale: 1},
		{name: "overwritten in v2: a hit", source: SourceDisk, hits: 1},
		{
			name: "damaged v2 entry: recomputed",
			prepare: func() {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[len(raw)-2] ^= 1 // inside the result
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			source: SourceComputed, computed: 1, corrupt: 1,
		},
		{name: "overwritten again: a hit", source: SourceDisk, hits: 1},
	} {
		if step.prepare != nil {
			step.prepare()
		}
		r, err := c.Run(ctx, RunRequest{SpecJSON: SpecToJSON(spec)})
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if r.Source != step.source || r.Result == nil || !r.Result.Verified {
			t.Errorf("%s: source %q, result %+v; want %q and a verified result", step.name, r.Source, r.Result, step.source)
		}
		after := s.Stats().Cache
		d := [4]int64{after.DiskHits - before.DiskHits, after.Computed - before.Computed, after.Corrupt - before.Corrupt, after.Stale - before.Stale}
		if d != [4]int64{step.hits, step.computed, step.corrupt, step.stale} {
			t.Errorf("%s: moved disk_hits, computed, corrupt_recovered, stale_recomputed by %v, want [%d %d %d %d]",
				step.name, d, step.hits, step.computed, step.corrupt, step.stale)
		}
		before = after
	}
	if raw, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(raw, []byte(`{"version":2,`)) {
		t.Errorf("entry not rewritten in the current format (err %v): %.40s", err, raw)
	}
}
