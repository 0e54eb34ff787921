package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/apps/scalekern"
	"repro/internal/apps/suite"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the measuring budget BENCHMARK.json asks the driver to
// pass as --seconds: two sweep rounds on a quiet host, one on a slow one.
const runSeconds = 20

// currentSpec is BENCHMARK.json as this program defines it; the committed
// file must say the same (a test compares them).
func currentSpec() benchSpec {
	s := benchSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndDefs(),
		PerLayer:   perLayerDefs(),
	}
	for _, w := range workloads() {
		s.Workloads = append(s.Workloads, workloadDef{w.name, w.why})
	}
	return s
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// withUnits turns measured values into reported metrics: exactly the
// declared names, each with its declared unit.
func withUnits(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("%d values measured for %d declared metrics", len(values), len(defs))
	}
	return out, nil
}

// endToEndDefs are the metrics of the untraced pass, reported on every
// workload. An operation is one simulation run of a batch workload and
// one request of a served one; a round is one fixed unit of the
// workload's work (one sweep, one pass over the kernels, a fixed count
// of requests). Every figure is the median over the rounds of a run.
func endToEndDefs() []metricDef {
	return []metricDef{
		{"wall_s", "s", "lower", 0.25},
		{"cpu_s", "s", "lower", 0.25},
		{"ops_per_s", "1/s", "higher", 0.25},
		{"op_p50_ms", "ms", "lower", 0.25},
		{"op_p90_ms", "ms", "lower", 0.25},
		{"op_p99_ms", "ms", "lower", 0.25},
		{"peak_rss_mb", "MB", "lower", 0.20},
		{"setup_s", "s", "lower", 0.25},
	}
}

// perLayerDefs are the metrics of the traced pass.
func perLayerDefs() []metricDef {
	lower := func(unit string, names ...string) []metricDef {
		var out []metricDef
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: "lower"})
		}
		return out
	}
	var d []metricDef
	add := func(ms ...metricDef) { d = append(d, ms...) }

	add(lower("ms", "host.calib_ms")...)
	add(metricDef{Name: "host.nproc", Unit: "count", Better: "higher"})
	add(lower("x", "bench.trace_overhead_x")...)
	add(lower("ratio", "span.exp_share", "span.run_share", "span.apps_share", "span.http_share",
		"span.service_share", "span.unattributed_share")...)
	for _, c := range roundCounters {
		better := "lower"
		if c.name == "run.pool_util" || c.name == "service.hit_rate" || c.name == "service.disk_hits" {
			better = "higher"
		}
		add(metricDef{Name: c.name, Unit: c.unit, Better: better})
	}

	add(lower("ns", "sim.dispatch_ns_per_event", "sim.checkpoint_ns", "sim.handoff_ns_per_switch", "sim.resumable_ns_per_event")...)
	add(lower("ns", "am.short_ns_per_msg", "am.bulk_ns_per_frag")...)
	add(lower("allocs/op", "am.short_allocs_per_msg", "am.bulk_allocs_per_frag")...)
	add(lower("x", "am.hooks_nop_x", "prof.stream_x", "trace.stream_x", "depgraph.stream_x",
		"prof.run_x", "depgraph.run_x", "fault.reliable_run_x")...)
	add(lower("ms", "calib.calibrate_ms", "tolerance.analyze_ms")...)
	add(lower("ns", "tolerance.eval_ns")...)
	add(lower("count", "depgraph.nodes_per_msg")...)

	add(lower("ns", "splitc.read_ns", "splitc.write_ns", "splitc.bulkput_ns_per_frag", "splitc.barrier_ns",
		"splitc.allreduce_ns", "splitc.broadcast_ns", "splitc.lock_ns")...)
	add(lower("count", "splitc.read_switches_per_op", "splitc.barrier_switches_per_op")...)

	for _, name := range suite.Names() {
		add(lower("ns", "apps."+name+".ns_per_msg")...)
		add(lower("allocs/op", "apps."+name+".allocs_per_msg")...)
		add(lower("count", "apps."+name+".switches_per_msg")...)
	}
	for _, name := range scalekern.Names() {
		p := "scalekern." + name
		add(lower("ns", p+".ns_per_event_p1000", p+".ns_per_event_p10000")...)
		add(lower("B", p+".bytes_per_proc_p10000")...)
		add(lower("allocs/op", p+".allocs_per_msg_p10000")...)
	}

	add(lower("ms", "exp.plan_ms", "exp.render_ms")...)
	add(lower("ns", "run.cached_ns_per_spec", "run.hash_ns")...)
	add(lower("us", "service.disk_load_us_p32", "service.disk_load_us_tiny", "service.disk_store_us",
		"service.wire_decode_us", "service.handler_hit_us", "service.handler_hit_full_us",
		"service.http_overhead_us", "service.sched_submit_us", "service.miss_overhead_us")...)
	add(lower("KB", "service.entry_kb_p32")...)
	add(lower("ms", "service.exec_miss_ms", "service.table_render_ms")...)
	return d
}

// exactness says how two runs of one commit on one seed must agree on a
// per-layer metric: counters of a deterministic simulator repeat
// exactly, malloc counts within 1 % (the Go runtime perturbs them),
// everything else is a timing and is not compared.
func exactness(d metricDef) (tolerance float64, compared bool) {
	switch {
	case d.Unit == "allocs/op" || d.Unit == "B":
		return 0.01, true
	case d.Unit == "count" && d.Name != "host.nproc" && !strings.HasPrefix(d.Name, "service."):
		return 0, true
	case d.Name == "service.computed" || d.Name == "service.rejected" || d.Name == "service.write_errors":
		// The other service counters depend on how two clients' requests
		// interleave (a shared load is "coalesced", not a disk hit).
		return 0, true
	}
	return 0, false
}
