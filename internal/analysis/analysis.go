// Package analysis implements reprolint, a suite of static analyzers
// that mechanically enforce the simulator's determinism and isolation
// invariants (DESIGN.md "Determinism invariants").
//
// The package is a small subset of the golang.org/x/tools/go/analysis
// framework that adds no module dependency: an Analyzer inspects one
// type-checked package at a time through a Pass and reports
// Diagnostics. The driver (Run) has the go command list the packages
// and compile their dependencies (go list -export), parses and
// type-checks each matched package against that export data, applies
// every analyzer, and filters diagnostics through the //lint:allow
// escape hatch. cmd/reprolint is the multichecker front end; tests use the
// sibling analysistest package with fixtures under testdata/src.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. Lower-case, no spaces.
	Name string
	// Doc is a one-line description of the invariant enforced.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass connects an Analyzer to the single package being analyzed.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned within the analyzed package.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// All returns the full reprolint analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		SimWallClock,
		SeededRand,
		NoGlobalMut,
		MapOrder,
		GoroutineFree,
		HotPathAlloc,
		ContSafe,
	}
}

// simScopes are the simulation packages (module-root-relative import
// path prefixes) in which virtual time is the only clock and a single
// goroutine is the only execution context. internal/run (the worker
// pool) and cmd/ (progress reporting) are deliberately excluded.
func simScopes() []string {
	return []string{
		"internal/sim",
		"internal/am",
		"internal/apps",
		"internal/core",
		"internal/depgraph",
		"internal/fault",
		"internal/logp",
		"internal/prof",
		"internal/splitc",
		"internal/tolerance",
	}
}

// noGlobalScopes are the packages that must hold no package-level
// mutable state, so that overlapping plans and the -jobs worker pool
// cannot interact through hidden channels (the PR 1 sweepCache
// regression, made structural).
func noGlobalScopes() []string {
	return []string{
		"internal/exp",
		"internal/run",
		"internal/apps",
		"internal/depgraph",
		"internal/fault",
		"internal/prof",
		"internal/splitc/tune",
		"internal/tolerance",
	}
}

// inScope reports whether pkgPath falls under any of the given
// module-root-relative prefixes, matching whole path segments only
// ("x/internal/sim" and "internal/sim/sub" match "internal/sim";
// "internal/simx" does not).
func inScope(pkgPath string, scopes []string) bool {
	for _, s := range scopes {
		if hasPathSegments(pkgPath, s) {
			return true
		}
	}
	return false
}

func hasPathSegments(path, want string) bool {
	for i := 0; i+len(want) <= len(path); i++ {
		if i > 0 && path[i-1] != '/' {
			continue
		}
		if path[i:i+len(want)] != want {
			continue
		}
		if i+len(want) == len(path) || path[i+len(want)] == '/' {
			return true
		}
	}
	return false
}

// pkgNameOf resolves an identifier to the import it names, if any.
func pkgNameOf(info *types.Info, id *ast.Ident) (*types.PkgName, bool) {
	pn, ok := info.Uses[id].(*types.PkgName)
	return pn, ok
}

// calleeFunc resolves a call-like selector (pkg.F or x.M) to the
// package-level function or method it names.
func calleeFunc(info *types.Info, sel *ast.SelectorExpr) (*types.Func, bool) {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return fn, ok
}

// isPkgFunc reports whether fn is a package-level function (no
// receiver) of the package with import path pkgPath.
func isPkgFunc(fn *types.Func, pkgPath string) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// baseIdent unwraps index, selector, star, and paren expressions to the
// identifier at the base of an assignable expression: m[k] -> m,
// s.f[i] -> s, (*p).x -> p. Returns nil when the base is not a plain
// identifier (for example a function call result).
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// relScope trims the module path from a package path for messages:
// "repro/internal/sim" -> "internal/sim".
func relScope(pkgPath string) string {
	if i := strings.Index(pkgPath, "internal/"); i >= 0 {
		return pkgPath[i:]
	}
	return pkgPath
}
