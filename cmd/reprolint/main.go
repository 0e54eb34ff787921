// Command reprolint runs the determinism-invariant analyzer suite
// (internal/analysis) over the repository and exits non-zero on any
// finding, making the invariants a CI gate:
//
//	go run ./cmd/reprolint ./...
//
// Patterns mean what they mean to the go command, which lists the
// packages and compiles their dependencies (go list -export); a "/..."
// pattern also covers each module nested below it, such as benchmark/.
//
// Exit codes: 0 clean, 1 findings, 2 load or usage errors. Findings
// print one per line as file:line:col: analyzer: message, followed by
// a per-analyzer summary. Intentional exceptions are annotated in the
// source with //lint:allow <analyzer> <reason> (see DESIGN.md
// "Determinism invariants").
//
// Flags:
//
//	-json F    additionally write the findings as a JSON array to F
//	           ("-" for stdout): {file, line, col, analyzer, message}
//	-gha       additionally emit GitHub Actions ::error workflow
//	           commands, so findings annotate the offending lines on PRs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analysis"
)

// jsonFinding is the machine-readable form of one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	jsonOut := flag.String("json", "", "write findings as JSON to this file (\"-\" for stdout)")
	gha := flag.Bool("gha", false, "emit GitHub Actions ::error annotations for findings")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: reprolint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	analyzers := analysis.All()
	start := time.Now()
	rep, err := analysis.Run(cwd, patterns, analyzers)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	for _, f := range rep.Findings {
		fmt.Printf("%s:%d:%d: %s: %s\n", relPath(cwd, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	if *gha {
		for _, f := range rep.Findings {
			// GitHub Actions workflow command; the runner attaches the
			// message to the file/line in the PR diff view.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=reprolint %s::%s\n",
				relPath(cwd, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, cwd, rep.Findings); err != nil {
			fatal(err)
		}
	}
	if n := len(rep.Findings); n > 0 {
		fmt.Printf("reprolint: %d finding(s) in %d package(s): %s\n",
			n, rep.Packages, strings.Join(rep.Counts(analyzers), ", "))
		os.Exit(1)
	}
	fmt.Printf("reprolint: ok — %d analyzers over %d packages, no findings (%.2fs)\n",
		len(analyzers), rep.Packages, elapsed.Seconds())
}

func writeJSON(path, base string, findings []analysis.Finding) error {
	// Always an array, [] rather than null when clean, so consumers can
	// iterate without a presence check.
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:     relPath(base, f.Pos.Filename),
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func relPath(base, path string) string {
	if rel, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reprolint:", err)
	os.Exit(2)
}
