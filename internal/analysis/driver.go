package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// A Finding is one unsuppressed diagnostic, resolved to a position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// A Report is the outcome of one driver run.
type Report struct {
	Findings []Finding
	Packages int
}

// Counts tallies findings per analyzer, in suite order, skipping
// analyzers with none.
func (r *Report) Counts(analyzers []*Analyzer) []string {
	byName := map[string]int{}
	for _, f := range r.Findings {
		byName[f.Analyzer]++
	}
	var out []string
	for _, a := range analyzers {
		if n := byName[a.Name]; n > 0 {
			out = append(out, fmt.Sprintf("%s %d", a.Name, n))
			delete(byName, a.Name)
		}
	}
	// Pseudo-analyzers (lintdirective) and anything not in the suite.
	var rest []string
	for name := range byName {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	for _, name := range rest {
		out = append(out, fmt.Sprintf("%s %d", name, byName[name]))
	}
	return out
}

// Run loads the packages matched by patterns (relative to dir) and
// applies every analyzer, returning findings that no //lint:allow
// directive covers, sorted by position.
func Run(dir string, patterns []string, analyzers []*Analyzer) (*Report, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	rep := &Report{Packages: len(pkgs)}
	for _, pkg := range pkgs {
		fs, err := RunPackage(pkg, analyzers...)
		if err != nil {
			return nil, err
		}
		rep.Findings = append(rep.Findings, fs...)
	}
	sortFindings(rep.Findings)
	return rep, nil
}

// RunPackage applies the analyzers to one loaded package and filters
// the results through its allow directives. analysistest calls it with
// the one analyzer a fixture exercises.
func RunPackage(pkg *Package, analyzers ...*Analyzer) ([]Finding, error) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	allows, findings := collectAllows(pkg, known)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
		}
		pass.report = func(d Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if allows.allowed(a.Name, pos) {
				return
			}
			findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	// Every analyzer has reported; directives that suppressed nothing
	// are stale and become findings themselves.
	findings = append(findings, allows.unused()...)
	return findings, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
