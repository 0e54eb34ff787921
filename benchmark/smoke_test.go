package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// reprodBin is cmd/reprod built from the tree, once, for the tests that
// drive the real daemon.
var reprodBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-test-")
	if err != nil {
		panic(err)
	}
	reprodBin = filepath.Join(dir, "reprod")
	build := exec.Command("go", "build", "-o", reprodBin, "./cmd/reprod")
	build.Dir = ".." // the repository's module
	if out, err := build.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build ./cmd/reprod: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smokeConfig is the -smoke path: tiny inputs, a budget that allows a
// second round, so that the repeat-the-first-round check runs too.
func smokeConfig(t *testing.T) *config {
	return &config{seed: 1, seconds: 0.5, size: smokeSizes, reprod: reprodBin, tmp: t.TempDir()}
}

// TestSmokeEndToEnd runs the untraced pass of every workload at smoke
// size: every end-to-end metric is reported, non-zero, with the unit
// BENCHMARK.json gives it, and nothing fails.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			c := smokeConfig(t)
			rec, err := endToEnd(context.Background(), w, c)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("correct %v, %d of %d operations failed: %v", rec.Correct, rec.Failed, rec.Attempted, rec.Detail.Notes)
			}
			checkMetrics(t, rec, endToEndDefs(), true)
			// Every daemon the set-up started has been stopped and waited
			// for: nothing answers on the addresses they wrote down.
			addrs, _ := filepath.Glob(filepath.Join(c.tmp, "cache-*", "addr"))
			if served := strings.HasPrefix(w.name, "serve-"); served && len(addrs) != w.setupReps {
				t.Errorf("%d daemons were started, want one per set-up repetition (%d)", len(addrs), w.setupReps)
			}
			for _, f := range addrs {
				addr, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if conn, err := net.DialTimeout("tcp", string(addr), time.Second); err == nil {
					conn.Close()
					t.Errorf("a reprod daemon is still listening on %s", addr)
				}
			}
		})
	}
}

// TestSmokePerLayer runs the traced pass at smoke size on one batch and
// one served workload: every per-layer metric of BENCHMARK.json is
// reported on both, and the trace file holds spans of the layers the
// workload goes through. The race detector slows the probes' simulations
// tenfold and finds nothing in them that the repository's own tests do
// not cover; TestTracedRoundUnderRace covers the traced rounds there.
func TestSmokePerLayer(t *testing.T) {
	if raceEnabled {
		t.Skip("probes are single-goroutine simulations; too slow under -race")
	}
	for _, tc := range []struct {
		workload string
		layers   []string
	}{
		{"sweep-fig5b", []string{layerBench, layerExp, layerRun, layerApps}},
		{"serve-mixed", []string{layerBench, layerHTTP, layerService}},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			w, err := workloadByName(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			c := smokeConfig(t)
			traceOut := filepath.Join(t.TempDir(), "trace.json")
			rec, err := perLayer(context.Background(), w, c, traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct {
				t.Errorf("%d of %d operations failed: %v", rec.Failed, rec.Attempted, rec.Detail.Notes)
			}
			checkMetrics(t, rec, perLayerDefs(), false)
			data, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, s := range spans {
				seen[s.Layer] = true
				if s.Layer == layerApps && s.Parent == 0 {
					t.Errorf("App.Run span %d (%s) has no run-layer parent", s.ID, s.Name)
				}
				if s.Layer == layerService && (s.Parent == 0 || s.Req == 0) {
					t.Errorf("handler span %d is not tied to its client span and request", s.ID)
				}
			}
			for _, l := range tc.layers {
				if !seen[l] {
					t.Errorf("no span of layer %s in the trace", l)
				}
			}
		})
	}
}

// TestTracedRoundUnderRace runs the traced round alone, the part of the
// traced pass where goroutines share the recorder: two pool workers
// under one RunInto span, two clients and the handler's goroutines.
func TestTracedRoundUnderRace(t *testing.T) {
	for _, name := range []string{"sweep-fig5b", "serve-mixed"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			m, err := oneRound(context.Background(), w, smokeConfig(t), rec, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !m.rec.Correct || len(rec.snapshot()) < len(m.round.ops) {
				t.Errorf("correct %v, %d spans for %d operations: %v", m.rec.Correct, len(rec.snapshot()), len(m.round.ops), m.rec.Detail.Notes)
			}
		})
	}
}

// checkMetrics: exactly the declared names, each with its declared unit.
func checkMetrics(t *testing.T, rec *record, defs []metricDef, nonZero bool) {
	t.Helper()
	for _, d := range defs {
		m, ok := rec.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is not reported", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		case nonZero && !(m.Value > 0):
			t.Errorf("metric %s = %g, must be positive", d.Name, m.Value)
		}
	}
	if len(rec.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(rec.Metrics), len(defs))
	}
}

// TestPerturbedGoldenFails is the negative test of the output checks: a
// run compared with committed results that differ in one cell reports
// failed operations (so fail_rate > 0 and a non-zero exit), and the same
// run compared with what it really produces does not.
func TestPerturbedGoldenFails(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		workload string
		golden   func(c *config, path string)
		produce  func(t *testing.T, c *config) string // the true output, as a golden file
		flip     func(string) string
	}{
		{
			workload: "sweep-fig5b",
			golden:   func(c *config, path string) { c.goldenTable = path },
			produce: func(t *testing.T, c *config) string {
				e, err := setupSweep(ctx, c, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.round(ctx, 0, nil); err != nil {
					t.Fatal(err)
				}
				return e.(*planEnv).first
			},
			flip: func(table string) string { return strings.Replace(table, "1.00", "1.01", 1) },
		},
		{
			workload: "scale-10k",
			golden:   func(c *config, path string) { c.goldenCounts = path },
			produce: func(t *testing.T, c *config) string {
				e, err := setupScale(ctx, c, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.round(ctx, 0, nil); err != nil {
					t.Fatal(err)
				}
				return `{"seed":1,"kernels":` + e.(*planEnv).first + `}`
			},
			flip: func(counts string) string { return strings.Replace(counts, `"events":`, `"events":1`, 1) },
		},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			w, err := workloadByName(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			c := smokeConfig(t)
			truth := tc.produce(t, c)
			for _, v := range []struct {
				name    string
				content string
				correct bool
			}{
				{"true golden", truth, true},
				{"perturbed golden", tc.flip(truth), false},
			} {
				if v.content == truth && !v.correct {
					t.Fatal("the perturbation changed nothing")
				}
				path := filepath.Join(t.TempDir(), "golden")
				if err := os.WriteFile(path, []byte(v.content), 0o644); err != nil {
					t.Fatal(err)
				}
				tc.golden(c, path)
				rec, err := endToEnd(ctx, w, c)
				if err != nil {
					t.Fatal(err)
				}
				if rec.Correct != v.correct || (rec.Failed == 0) != v.correct {
					t.Errorf("%s: correct %v with %d of %d operations failed; want correct %v",
						v.name, rec.Correct, rec.Failed, rec.Attempted, v.correct)
				}
			}
		})
	}
}

// TestSpecFileMatchesProgram: BENCHMARK.json at the root of the
// repository says what this program measures — the same workloads,
// metrics, units, directions and bounds, in the same order.
func TestSpecFileMatchesProgram(t *testing.T) {
	committed, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := currentSpec()
	if !reflect.DeepEqual(*committed, want) {
		t.Errorf("BENCHMARK.json differs from the program's definitions; regenerate it with\n  bash benchmark/run.sh -print-spec > BENCHMARK.json")
	}
	// The contract's limits on the file.
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), want.EndToEnd...), want.PerLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v breaks the contract (unique name ≤ 64, unit ≤ 16, better lower|higher)", d)
		}
		seen[d.Name] = true
	}
	for _, d := range want.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %g, must be in (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(want.EndToEnd) > 16 || len(want.PerLayer) > 128 || len(want.Workloads) < 2 || len(want.Workloads) > 8 {
		t.Errorf("%d end-to-end, %d per-layer, %d workloads: outside the contract's limits", len(want.EndToEnd), len(want.PerLayer), len(want.Workloads))
	}
	for _, w := range want.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
}

// TestCompare: the -compare verdicts on synthetic sets.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale map[string]float64, calib float64, failed int) string {
		path := filepath.Join(dir, name)
		for _, w := range workloads() {
			for seed := int64(1); seed <= 10; seed++ {
				rec := &record{Workload: w.name, Seed: seed}
				rec.Correct, rec.Attempted, rec.Failed = failed == 0, 100, failed
				rec.Detail.CalibMs = calib
				rec.Metrics = map[string]metric{}
				for _, d := range endToEndDefs() {
					f := scale[d.Name]
					if f == 0 {
						f = 1
					}
					// ±2 % of run-to-run noise around 100.
					rec.Metrics[d.Name] = metric{Value: f * (100 + float64(seed%5-2)), Unit: d.Unit}
				}
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base := write("base.jsonl", nil, 60, 0)
	for _, tc := range []struct {
		name    string
		other   string
		bad     bool
		mention string
	}{
		{"a set agrees with itself", base, false, verdictOK},
		{"a 10 % slowdown is inside every bound", write("slow10.jsonl", map[string]float64{"wall_s": 1.10}, 60, 0), false, verdictOK},
		{"a 40 % slowdown regressed", write("slow40.jsonl", map[string]float64{"wall_s": 1.40}, 60, 0), true, verdictRegressed},
		{"throughput is better when higher", write("fewer.jsonl", map[string]float64{"ops_per_s": 0.6}, 60, 0), true, verdictRegressed},
		{"more throughput is no regression", write("more.jsonl", map[string]float64{"ops_per_s": 1.6}, 60, 0), false, verdictOK},
		{"a drifted host is not judged", write("drift.jsonl", map[string]float64{"wall_s": 1.40}, 70, 0), true, verdictDrifted},
		{"a failed operation", write("failed.jsonl", nil, 60, 3), true, "FAILED RUN"},
	} {
		var out bytes.Buffer
		bad, err := compareFiles(&out, spec, base, tc.other)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if bad != tc.bad || !strings.Contains(out.String(), tc.mention) {
			t.Errorf("%s: bad = %v, want %v, and the report must mention %q:\n%s", tc.name, bad, tc.bad, tc.mention, out.String())
		}
	}
}

func TestVerdictUnresolved(t *testing.T) {
	d := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25}
	noisy := []float64{60, 80, 100, 120, 140, 100, 90, 110, 70, 130}
	if got := verdict(d, noisy, noisy, false); got != verdictUnresolved {
		t.Errorf("a spread above the bound: verdict %q, want %q", got, verdictUnresolved)
	}
	// Every run of B better than every run of A resolves it all the same.
	fast := []float64{30, 40, 50, 45, 35, 40, 42, 38, 33, 48}
	if got := verdict(d, noisy, fast, false); got != verdictOK {
		t.Errorf("B better on every run: verdict %q, want %q", got, verdictOK)
	}
}
