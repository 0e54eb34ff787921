package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// perLayer runs the traced pass: one untraced round of the workload for
// the base, one traced round with spans recorded around each call into a
// layer, then the isolated layer probes. Its record holds every
// per-layer metric; the roll-up of the traced round goes to the notes.
func perLayer(ctx context.Context, w workload, c *config, traceOut string) (*record, error) {
	calib := hostCalibMs()

	// The untraced base: the same set-up and one round, as the
	// end-to-end pass runs them.
	base, err := oneRound(ctx, w, c, nil, calib)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, err := oneRound(ctx, w, c, rec, calib)
	if err != nil {
		return nil, err
	}
	spans := rec.snapshot()
	adoptRuns(spans)
	if traceOut != "" {
		if err := writeSpans(traceOut, spans); err != nil {
			return nil, err
		}
	}

	values := map[string]float64{
		"host.calib_ms":          calib,
		"host.nproc":             float64(runtime.NumCPU()),
		"bench.trace_overhead_x": traced.round.wall / base.round.wall,
	}
	// Each layer's share of all self time. Two workers under one RunInto
	// span overlap, so self times sum to more than the round's wall time;
	// shares of their own sum still add up to one.
	self := layerSelf(spans)
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for _, l := range []string{layerExp, layerRun, layerApps, layerHTTP, layerService, layerBench} {
		name := "span." + l + "_share"
		if l == layerBench { // the benchmark's own glue between layer calls
			name = "span.unattributed_share"
		}
		values[name] = float64(self[l]) / float64(total)
	}
	// The traced round's own counters; the ones a workload has no part
	// in read 0 there.
	for _, n := range roundCounters {
		values[n.name] = traced.round.counts[n.name]
	}

	probes, err := runProbes(ctx, c)
	if err != nil {
		return nil, err
	}
	for name, v := range probes {
		values[name] = v
	}
	out := traced.rec
	if out.Metrics, err = withUnits(perLayerDefs(), values); err != nil {
		return nil, err
	}
	out.Detail.Notes = append(out.Detail.Notes, rollUp(base.round, traced.round, spans, values)...)
	return out, nil
}

// roundCounters are the per-layer metrics read from the traced round's
// counters rather than from a probe.
var roundCounters = []struct{ name, unit string }{
	{"run.pool_util", "ratio"},
	{"sim.switches", "count"}, {"sim.events", "count"}, {"am.messages", "count"},
	{"service.hit_rate", "ratio"}, {"service.disk_hits", "count"}, {"service.computed", "count"},
	{"service.coalesced", "count"}, {"service.rejected", "count"}, {"service.write_errors", "count"},
	{"service.max_queue_depth", "count"}, {"service.hit_over_10ms", "count"},
}

// measured is one round with the record of the run around it.
type measured struct {
	round round
	rec   *record
}

// oneRound sets the workload up, runs a single round, traced when rec is
// set, and closes it.
func oneRound(ctx context.Context, w workload, c *config, rec *recorder, calib float64) (*measured, error) {
	e, err := w.setup(ctx, c, rec)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	m, err := func() (*measured, error) {
		r, err := e.round(ctx, 0, rec)
		if err != nil {
			return nil, err
		}
		out, err := newRecord(ctx, w, c, 1, calib, e, []round{r})
		return &measured{round: r, rec: out}, err
	}()
	if cerr := e.close(); err == nil {
		err = cerr
	}
	return m, err
}

// rollUp sets the traced round's parts beside its whole, for a person.
// Where the parts of a column do not add up to their parent within 15 %
// the residual is printed as unattributed, never hidden.
func rollUp(base, traced round, spans []span, m map[string]float64) []string {
	var out []string
	line := func(format string, a ...any) { out = append(out, fmt.Sprintf(format, a...)) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	account := func(what string, whole, parts float64) {
		if resid := whole - parts; resid > 0.15*whole || resid < -0.15*whole {
			line("  unattributed: %.3f ms of %s (%.0f %%)", resid, what, 100*resid/whole)
		}
	}
	line("roll-up of the traced round (untraced round %.3f s, traced %.3f s):", base.wall, traced.wall)

	var plan, exec, output, specs, appRuns time.Duration
	perApp := map[string]time.Duration{}
	handlerOf := map[int]time.Duration{} // by request number
	for _, s := range spans {
		switch {
		case s.Layer == layerExp && s.Name == "plan":
			plan += s.dur()
		case s.Layer == layerExp:
			output += s.dur()
		case s.Layer == layerRun && s.Name == "RunInto":
			exec += s.dur()
		case s.Layer == layerRun:
			specs += s.dur()
		case s.Layer == layerApps:
			perApp[s.Name] += s.dur()
			appRuns += s.dur()
		case s.Layer == layerService:
			handlerOf[s.Req] = s.dur()
		}
	}

	if exec > 0 { // a batch round
		line("  wall %.1f ms = plan %.3f + run %.1f + output %.3f ms", traced.wall*1e3, ms(plan), ms(exec), ms(output))
		account("the round", traced.wall*1e3, ms(plan+exec+output))
		line("  run: %.1f ms of simulation runs in %.1f ms of RunInto (pool_util %.2f); by app, summed App.Run time:",
			ms(specs), ms(exec), m["run.pool_util"])
		names := make([]string, 0, len(perApp))
		for n := range perApp {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			probe := ""
			if pm, ok := m["apps."+n+".ns_per_msg"]; ok {
				probe = fmt.Sprintf("  probe: %.0f ns/msg, of which short message %.0f and %.2f switches × %.0f ns",
					pm, m["am.short_ns_per_msg"], m["apps."+n+".switches_per_msg"], m["sim.handoff_ns_per_switch"])
			}
			line("    %-12s %9.1f ms %5.1f %%%s", n, ms(perApp[n]), 100*float64(perApp[n])/float64(appRuns), probe)
		}
		account("the simulation runs", ms(specs), ms(appRuns))
		return out
	}

	// A served round: each hot hit's client span against its handler span.
	var client, inHandler, outside []float64
	for _, s := range spans {
		if s.Layer == layerHTTP && s.Name == classHit {
			client = append(client, ms(s.dur()))
			inHandler = append(inHandler, ms(handlerOf[s.Req]))
			outside = append(outside, ms(s.dur()-handlerOf[s.Req]))
		}
	}
	p50 := median(client)
	line("  hit p50 %.3f ms (in-process server, %d samples) = handler %.3f + http and client %.3f ms",
		p50, len(client), median(inHandler), median(outside))
	account("the hit", p50, median(inHandler)+median(outside))
	hit, load := m["service.handler_hit_us"]/1e3, m["service.disk_load_us_p32"]/1e3
	line("  probes: handler hit of a baseline %.3f ms, of which its one verified load %.3f ms (%.0f %%; a sweep point loads its baseline too); http %.3f ms",
		hit, load, 100*load/hit, m["service.http_overhead_us"]/1e3)
	untraced := percentile(latencies(base.ops, classHit), 0.5)
	line("  untraced child daemon: hit p50 %.3f ms (in-process ÷ child = %.2f; the topology differs)", untraced, p50/untraced)
	return out
}
