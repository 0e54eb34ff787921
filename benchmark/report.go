package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// sortedNames returns a metric map's names in order: every printed
// surface iterates sorted.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printRecord writes one run for a person: every metric by name with its
// unit, then the sample counts the percentiles rest on and any notes.
func printRecord(w io.Writer, rec *record) {
	pass := "end-to-end (tracing off)"
	if rec.Trace != 0 {
		pass = "per-layer (traced pass and probes)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s ==\n", rec.Workload, rec.Seed, pass)
	fmt.Fprintf(w, "host: nproc %d, calib %.2f ms, %s; rounds %d\n",
		rec.Detail.NProc, rec.Detail.CalibMs, rec.Detail.GoVersion, rec.Detail.Rounds)
	for _, n := range sortedNames(rec.Metrics) {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "  %-40s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	for _, c := range rec.Detail.Classes {
		fmt.Fprintf(w, "  class %-12s n=%-6d p50 %.3f ms", c.Class, c.Samples, c.P50Ms)
		if c.TailQ > 0.5 {
			fmt.Fprintf(w, "  p%g %.3f ms (%d beyond)", c.TailQ*100, c.TailMs, beyond(c.Samples, c.TailQ))
		}
		fmt.Fprintln(w)
	}
	for _, n := range rec.Detail.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fail := 0.0
	if rec.Attempted > 0 {
		fail = float64(rec.Failed) / float64(rec.Attempted)
	}
	fmt.Fprintf(w, "  operations %d, failed %d, fail_rate %g, correct %v\n", rec.Attempted, rec.Failed, fail, rec.Correct)
}

// runAll runs every workload, untraced then traced, each in a child
// process of this binary so that peak memory and CPU time belong to one
// workload, and fails if any run does. The children print their own
// summaries; with out set their records accumulate there for -compare.
// common holds the flags every child takes unchanged.
func runAll(ctx context.Context, seed int64, seconds float64, smoke bool, out string, common []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads() {
		for _, trace := range []string{"0", "1"} {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace}
			if smoke {
				args = append(args, "-smoke")
			}
			if out != "" {
				args = append(args, "-out", out)
			}
			args = append(args, common...)
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s (trace %s): %v", w.name, trace, err))
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d runs failed: %v", len(failed), failed)
	}
	return nil
}

// readRecords loads an -out file.
func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}
