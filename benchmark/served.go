package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/run"
	"repro/internal/service"
)

// Classes of served request.
const (
	classHit     = "hit"      // hot P=32 entry, minimal response
	classHitFull = "hit-full" // hot P=32 entry, full result in the response
	classHitCool = "hit-cool" // one of the many tiny entries
	classMiss    = "miss"     // never-seen spec: simulate and persist
	classTable   = "table"    // warm /v1/experiment: every run a hit, then render
)

// share is one class's part of a round's requests.
type share struct {
	class string
	pct   int
}

// The request mixes. Counts per round are exact (share × round size);
// only the order and the picks are drawn from the seed.
var (
	hotMix   = []share{{classHit, 80}, {classHitFull, 20}}
	mixedMix = []share{{classHit, 54}, {classHitCool, 25}, {classMiss, 20}, {classTable, 1}}
)

// slot is one request of a round before it is bound to a spec: its class
// and a draw that picks the entry within the class's population.
type slot struct {
	class string
	pick  int
}

// genRound lays out round r of n requests: exact class counts from the
// shares, a seeded shuffle, and a seeded pick per slot. The same seed and
// round give the same sequence.
func genRound(seed int64, r, n int, mix []share) []slot {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
	slots := make([]slot, 0, n)
	for _, s := range mix {
		for i := 0; i < n*s.pct/100; i++ {
			slots = append(slots, slot{class: s.class})
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	for i := range slots {
		slots[i].pick = rng.Int()
	}
	return slots
}

// request is one HTTP call and what its answer must say.
type request struct {
	class string
	path  string
	body  []byte
	// want is the expected answer; a miss has no known elapsed time until
	// it is recomputed after timing, so elapsedNs is 0 there.
	wantHash    string
	wantElapsed int64
	wantText    string   // table only
	spec        run.Spec // miss only
}

// answer is the three fields of a /v1/run response the client checks.
// Decoding three fields, not the full apps.Result, keeps the client's
// cost small and the same for every response.
type answer struct {
	Hash      string `json:"hash"`
	ElapsedNs int64  `json:"elapsed_ns"`
	Source    string `json:"source"`
	Text      string `json:"text"` // /v1/experiment
}

// entry is one pre-warmed spec.
type entry struct {
	spec      run.Spec
	hash      string
	elapsedNs int64
	minimal   []byte // request bodies
	full      []byte
}

// servedEnv is a warm daemon with its reference answers.
type servedEnv struct {
	c      *config
	mix    []share
	nRound int

	base    string // http://host:port
	daemon  *exec.Cmd
	srv     *service.Server // in-process server of the traced pass
	ts      *httptest.Server
	rec     *recorder // set on the traced pass: where handler spans go
	clients [lanes]*http.Client

	hot, cool []entry
	table     request
	missBase  int64

	start service.StatsResponse // counters when timing began

	mu     sync.Mutex // guards what the two clients both write
	missed []missRecord
	over10 int      // hits slower than ROADMAP item 3's 10 ms limit
	notes  []string // the first few failures
}

// missRecord remembers what the daemon answered for a miss.
type missRecord struct {
	spec      run.Spec
	elapsedNs int64
}

func setupServeHot(ctx context.Context, c *config, rec *recorder) (env, error) {
	return setupServed(ctx, c, rec, hotMix, c.size.hotRound)
}

func setupServeMixed(ctx context.Context, c *config, rec *recorder) (env, error) {
	return setupServed(ctx, c, rec, mixedMix, c.size.mixedRound)
}

// setupServed computes the reference answers in-process, starts a daemon
// on a fresh cache directory, warms the cache through it, and asserts the
// daemon's own counters before any timing starts.
func setupServed(ctx context.Context, c *config, rec *recorder, mix []share, nRound int) (_ env, err error) {
	e := &servedEnv{c: c, mix: mix, nRound: nRound, rec: rec, missBase: 1_000_000_000 + c.seed*10_000_000}
	defer func() {
		if err != nil {
			err = errors.Join(err, e.close())
		}
	}()
	opts := c.hotOptions()
	hotPlan, err := exp.PlanFor([]string{"fig5b"}, opts)
	if err != nil {
		return nil, err
	}
	ref := run.NewStore()
	if err := exp.DefaultRunner(opts, nil).RunIntoContext(ctx, ref, hotPlan); err != nil {
		return nil, err
	}
	if e.hot, err = entries(hotPlan, ref); err != nil {
		return nil, err
	}
	mixed := false
	for _, s := range mix {
		mixed = mixed || s.class == classMiss
	}
	if mixed {
		coolPlan := run.NewPlan()
		for i := 1; i <= c.size.coolSpecs; i++ {
			coolPlan.AddBaseline("radix", c.size.tinyProcs, c.size.coolScale, c.seed*100_000+int64(i), false)
		}
		if err := exp.DefaultRunner(opts, nil).RunIntoContext(ctx, ref, coolPlan); err != nil {
			return nil, err
		}
		if e.cool, err = entries(coolPlan, ref); err != nil {
			return nil, err
		}
		tab, err := exp.Render("fig5b", opts, ref)
		if err != nil {
			return nil, err
		}
		e.table = request{class: classTable, path: "/v1/experiment", body: tableBody(opts), wantText: tab.Text()}
	}

	if err := e.startDaemon(ctx); err != nil {
		return nil, err
	}

	// Warm through the daemon: baselines first, so that no sweep point
	// meets its baseline still in flight and every run is computed
	// exactly once; then everything else; then, for the mix, one table.
	var baselines, rest []request
	for _, en := range append(append([]entry(nil), e.hot...), e.cool...) {
		rq := request{class: classMiss, path: "/v1/run", body: en.minimal, wantHash: en.hash, wantElapsed: en.elapsedNs}
		if en.spec.IsBaseline() {
			baselines = append(baselines, rq)
		} else {
			rest = append(rest, rq)
		}
	}
	for _, batch := range [][]request{baselines, rest} {
		ops, err := e.drive(ctx, batch, 0)
		if err != nil {
			return nil, err
		}
		if n := countFailed(ops); n > 0 {
			return nil, fmt.Errorf("warming the cache: %d of %d answers wrong: %v", n, len(ops), e.notes)
		}
	}
	// Every entry was computed once; every sweep point looked its
	// baseline up (a hit, or a shared load when both clients wanted the
	// same one at once).
	computed, hits := int64(len(e.hot)+len(e.cool)), int64(len(rest))
	if mixed {
		ops, err := e.drive(ctx, []request{e.table}, 0)
		if err != nil {
			return nil, err
		}
		if countFailed(ops) > 0 {
			return nil, fmt.Errorf("warming the table: %v", e.notes)
		}
		hits += int64(len(e.hot))
	}
	if e.start, err = e.stats(ctx); err != nil {
		return nil, err
	}
	if got := e.start.Cache; got.Computed != computed || got.DiskHits+got.Coalesced != hits ||
		got.Corrupt+got.WriteErrors+got.Rejected+got.RunErrors != 0 {
		return nil, fmt.Errorf("after warming, /v1/stats cache counters are %+v, want %d computed, %d hits, no errors", got, computed, hits)
	}
	return e, nil
}

// hotOptions is the plan of the served hot set: fig5b quick at the hot
// sizes, on this seed's inputs.
func (c *config) hotOptions() exp.Options {
	return exp.Options{Procs: c.size.hotProcs, Scale: c.size.hotScale, Seed: c.seed, Apps: c.size.hotApps, Quick: true, Jobs: lanes}
}

// mustJSON marshals a wire struct of plain fields, which cannot fail.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// runBody is the body of a POST /v1/run for a spec.
func runBody(s run.Spec, minimal bool) []byte {
	return mustJSON(service.RunRequest{SpecJSON: service.SpecToJSON(s), Minimal: minimal})
}

// tableBody is the body of a POST /v1/experiment for fig5b under o.
func tableBody(o exp.Options) []byte {
	return mustJSON(service.ExperimentRequest{ID: "fig5b", Options: service.OptionsJSON{
		Procs: o.Procs, Scale: o.Scale, Seed: o.Seed, Apps: o.Apps, Quick: o.Quick,
	}})
}

// entries pairs each spec of a plan with its reference answer and its
// request bodies.
func entries(p *run.Plan, ref *run.Store) ([]entry, error) {
	var out []entry
	for _, s := range p.Specs() {
		res, err := ref.Result(s)
		if err != nil {
			return nil, err
		}
		out = append(out, entry{
			spec: s, hash: s.Hash(), elapsedNs: int64(res.Elapsed),
			minimal: runBody(s, true), full: runBody(s, false),
		})
	}
	return out, nil
}

func countFailed(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.failed {
			n++
		}
	}
	return n
}

// startDaemon brings up the server under test on a fresh cache
// directory: the real reprod binary as a child process, or, for the
// traced pass (a recorder is set), service.New in this process behind a
// span middleware.
func (e *servedEnv) startDaemon(ctx context.Context) error {
	dir, err := os.MkdirTemp(e.c.tmp, "cache-")
	if err != nil {
		return err
	}
	for i := range e.clients {
		// One keep-alive connection per client.
		e.clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	if e.rec != nil {
		if e.srv, err = service.New(service.Config{CacheDir: dir, Workers: lanes}); err != nil {
			return err
		}
		e.ts = httptest.NewServer(e.spanned(e.srv.Handler()))
		e.base = e.ts.URL
		return nil
	}
	if e.c.reprod == "" {
		return errors.New("no reprod binary: run through benchmark/run.sh, or pass -reprod")
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(e.c.reprod, "serve", "-addr", "127.0.0.1:0", "-cache", dir,
		"-workers", strconv.Itoa(lanes), "-addr-file", addrFile)
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start reprod: %w", err)
	}
	e.daemon = cmd
	deadline := time.Now().Add(10 * time.Second)
	for {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			e.base = "http://" + string(addr)
			if resp, err := e.clients[0].Get(e.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return errors.New("reprod did not come up within 10 s")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Headers that carry the client span and the request number to the
// in-process handler, so that the spans of one request share an id.
const (
	headerSpan = "X-Bench-Span"
	headerReq  = "X-Bench-Req"
)

// spanned records a service-layer span around every handled request,
// beneath the client span named in the request's headers.
func (e *servedEnv) spanned(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(headerSpan))
		req, _ := strconv.Atoi(r.Header.Get(headerReq))
		var id int
		if parent != 0 { // only requests of a traced round
			id = e.rec.begin(parent, req, layerService, r.URL.Path)
		}
		h.ServeHTTP(w, r)
		e.rec.end(id)
	})
}

// drive sends the requests from lanes closed-loop clients, each on its
// own connection, taking the next request when its previous one is
// answered. root is the span the client spans hang under (0 = untraced).
func (e *servedEnv) drive(ctx context.Context, reqs []request, root int) ([]op, error) {
	ops := make([]op, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < lanes; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				ops[i] = e.do(ctx, k, i, reqs[i], root)
			}
		}(k)
	}
	wg.Wait()
	return ops, ctx.Err()
}

// do sends one request and checks its answer; any failure — transport,
// status, or a wrong body — fails the operation, it does not stop the
// run.
func (e *servedEnv) do(ctx context.Context, k, i int, rq request, root int) op {
	o := op{class: rq.class}
	spanID := 0
	if root != 0 {
		spanID = e.rec.begin(root, i+1, layerHTTP, rq.class)
	}
	start := time.Now()
	ans, err := e.roundTrip(ctx, k, rq, spanID, i+1)
	o.ms = float64(time.Since(start)) / float64(time.Millisecond)
	e.rec.end(spanID)
	if err == nil {
		err = rq.check(ans)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case err != nil:
		o.failed = true
		if len(e.notes) < 5 { // the first few are enough for the summary
			e.notes = append(e.notes, fmt.Sprintf("%s request %d: %v", rq.class, i, err))
		}
	case rq.class == classMiss && rq.wantElapsed == 0:
		e.missed = append(e.missed, missRecord{rq.spec, ans.ElapsedNs})
	case rq.class != classMiss && rq.class != classTable && o.ms > 10:
		e.over10++
	}
	return o
}

// roundTrip posts the request on client k's connection and decodes the
// answer. span and req, when set, tell the in-process handler which
// client span and request its own span belongs to.
func (e *servedEnv) roundTrip(ctx context.Context, k int, rq request, span, req int) (answer, error) {
	var ans answer
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return ans, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Reprod-Client", "bench-"+strconv.Itoa(k))
	if span != 0 {
		hr.Header.Set(headerSpan, strconv.Itoa(span))
		hr.Header.Set(headerReq, strconv.Itoa(req))
	}
	resp, err := e.clients[k].Do(hr)
	if err != nil {
		return ans, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return ans, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		return ans, err
	}
	// Drain, so the connection is reused.
	_, err = io.Copy(io.Discard, resp.Body)
	return ans, err
}

// check compares an answer with what the in-process reference gave.
func (rq request) check(a answer) error {
	if rq.class == classTable {
		if a.Text != rq.wantText {
			return errors.New("rendered table differs from the in-process rendering")
		}
		return nil
	}
	if a.Hash != rq.wantHash {
		return fmt.Errorf("hash %s, want %s", a.Hash, rq.wantHash)
	}
	if rq.wantElapsed != 0 && a.ElapsedNs != rq.wantElapsed {
		return fmt.Errorf("elapsed_ns %d, want %d", a.ElapsedNs, rq.wantElapsed)
	}
	if a.ElapsedNs <= 0 {
		return fmt.Errorf("elapsed_ns %d", a.ElapsedNs)
	}
	switch {
	case rq.class == classMiss && a.Source != service.SourceComputed:
		return fmt.Errorf("source %q, want computed", a.Source)
	case rq.class != classMiss && a.Source != service.SourceDisk && a.Source != service.SourceCoalesced:
		// Two clients asking for one hot entry at the same instant share
		// one load: the second is answered "coalesced", which is a hit.
		return fmt.Errorf("source %q, want disk", a.Source)
	}
	return nil
}

func (e *servedEnv) stats(ctx context.Context) (service.StatsResponse, error) {
	var st service.StatsResponse
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := e.clients[0].Do(hr)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// requests binds round r's slots to specs and bodies.
func (e *servedEnv) requests(r int) []request {
	slots := genRound(e.c.seed, r, e.nRound, e.mix)
	reqs := make([]request, len(slots))
	for i, s := range slots {
		switch s.class {
		case classHit, classHitFull, classHitCool:
			pop, body := e.hot, func(en entry) []byte { return en.minimal }
			if s.class == classHitCool {
				pop = e.cool
			} else if s.class == classHitFull {
				body = func(en entry) []byte { return en.full }
			}
			en := pop[s.pick%len(pop)]
			reqs[i] = request{class: s.class, path: "/v1/run", body: body(en), wantHash: en.hash, wantElapsed: en.elapsedNs}
		case classMiss:
			// A seed no earlier request of this run used.
			spec := run.Baseline("radix", e.c.size.tinyProcs, e.c.size.missScale, e.missBase+int64(r*e.nRound+i), false)
			reqs[i] = request{class: classMiss, path: "/v1/run", body: runBody(spec, true), wantHash: spec.Hash(), spec: spec}
		case classTable:
			reqs[i] = e.table
		}
	}
	return reqs
}

func (e *servedEnv) round(ctx context.Context, r int, rec *recorder) (round, error) {
	reqs := e.requests(r)
	if rec != e.rec {
		return round{}, errors.New("a served workload is traced by the recorder it was set up with")
	}
	root := rec.begin(0, 0, layerBench, "round")
	cpu0, err := e.cpu()
	if err != nil {
		return round{}, err
	}
	t0 := time.Now()
	ops, err := e.drive(ctx, reqs, root)
	wall := time.Since(t0).Seconds()
	e.rec.end(root)
	if err != nil {
		return round{}, err
	}
	cpu1, err := e.cpu()
	if err != nil {
		return round{}, err
	}
	out := round{wall: wall, cpu: cpu1 - cpu0, ops: ops, lat: latencies(ops, "")}
	if rec != nil {
		end, err := e.stats(ctx)
		if err != nil {
			return round{}, err
		}
		out.counts = e.delta(end)
	}
	return out, nil
}

// cpu is the server's CPU time: the child daemon's alone, so the load
// generator's is not in it; this process's on the in-process pass.
func (e *servedEnv) cpu() (float64, error) {
	if e.daemon != nil {
		return procCPU(e.daemon.Process.Pid)
	}
	return selfCPU(), nil
}

func (e *servedEnv) peakRSSMB() (float64, error) {
	if e.daemon != nil {
		return procPeakRSSMB(e.daemon.Process.Pid)
	}
	return selfPeakRSSMB()
}

// finish checks the daemon's counters over the timed section — exactly
// the misses were computed, nothing was refused, lost or failed — and
// recomputes every n-th miss in-process.
func (e *servedEnv) finish(ctx context.Context, rounds []round) (checks, fails int, notes []string, err error) {
	end, err := e.stats(ctx)
	if err != nil {
		return 0, 0, nil, err
	}
	misses := 0
	for _, r := range rounds {
		misses += len(latencies(r.ops, classMiss))
	}
	d := e.delta(end)
	checks = 1
	if d["service.computed"] != float64(misses) || d["service.rejected"] != 0 ||
		d["service.write_errors"] != 0 || d["service.run_errors"] != 0 || d["service.corrupt"] != 0 {
		fails++
		notes = append(notes, fmt.Sprintf("/v1/stats over the timed section: %v, want computed %d and no errors", d, misses))
	}
	runner := exp.DefaultRunner(exp.Options{}, nil)
	for i := 0; i < len(e.missed); i += e.c.size.verifyMisses {
		m := e.missed[i]
		checks++
		if out := runner.ExecBaseline(m.spec); out.Err != nil || int64(out.Res.Elapsed) != m.elapsedNs {
			fails++
			notes = append(notes, fmt.Sprintf("miss %v: daemon said %d ns, in-process %d ns (%v)", m.spec, m.elapsedNs, int64(out.Res.Elapsed), out.Err))
		}
		if ctx.Err() != nil {
			return 0, 0, nil, ctx.Err()
		}
	}
	notes = append(notes, e.notes...)
	notes = append(notes, fmt.Sprintf("hits over 10 ms: %d; misses recomputed in-process: %d of %d", e.over10, checks-1, len(e.missed)))
	return checks, fails, notes, nil
}

// delta is the daemon's counters since timing began, by per-layer
// metric name.
func (e *servedEnv) delta(end service.StatsResponse) map[string]float64 {
	a, b := e.start.Cache, end.Cache
	d := map[string]float64{
		"service.disk_hits":       float64(b.DiskHits - a.DiskHits),
		"service.computed":        float64(b.Computed - a.Computed),
		"service.coalesced":       float64(b.Coalesced - a.Coalesced),
		"service.rejected":        float64(b.Rejected - a.Rejected),
		"service.write_errors":    float64(b.WriteErrors - a.WriteErrors),
		"service.run_errors":      float64(b.RunErrors - a.RunErrors),
		"service.corrupt":         float64(b.Corrupt - a.Corrupt),
		"service.max_queue_depth": float64(end.Sched.MaxDepth),
		"service.hit_over_10ms":   float64(e.over10),
	}
	if total := d["service.disk_hits"] + d["service.coalesced"] + d["service.computed"]; total > 0 {
		d["service.hit_rate"] = (d["service.disk_hits"] + d["service.coalesced"]) / total
	}
	return d
}

// close stops the daemon — SIGTERM, so that it shuts down as it would in
// service, then a kill if it lingers — waits for it, and removes the
// cache directory's parent scratch when the run ends (main does that).
func (e *servedEnv) close() error {
	for _, c := range e.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if e.ts != nil {
		e.ts.Close()
		e.srv.Close()
		e.ts = nil
	}
	if e.daemon == nil {
		return nil
	}
	cmd := e.daemon
	e.daemon = nil
	_ = cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		return errors.New("reprod ignored SIGTERM for 10 s and was killed")
	}
}
