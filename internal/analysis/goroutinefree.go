package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// GoroutineFree forbids go statements, channel operations and iter.Pull
// inside simulation packages. Each simulation must stay single-goroutine
// so that a run is a pure function of its Spec: host concurrency belongs
// only to internal/run's worker pool, which parallelizes across
// simulations, never within one.
//
// iter.Pull is on the list because it starts a goroutine without a go
// statement. It has exactly one sanctioned user, internal/sim/coro.go:
// the adapter that lets the scheduler step a blocking SPMD body as a
// Resumable, switching to the body's stack and back with no channel and
// nothing for the host scheduler to order. That file is exempt by name;
// there is no allow directive to carry, and the shell-confinement test
// pins that none appears anywhere in the module.
var GoroutineFree = &Analyzer{
	Name: "goroutinefree",
	Doc:  "forbid go statements, channel operations and iter.Pull in simulation packages",
	Run:  runGoroutineFree,
}

// coroFile is the one file that may call iter.Pull.
const coroScope, coroFile = "internal/sim", "coro.go"

func runGoroutineFree(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), simScopes()) {
		return nil
	}
	scope := relScope(pass.Pkg.Path())
	for _, f := range pass.Files {
		pullOK := scope == coroScope && filepath.Base(pass.Fset.Position(f.Pos()).Filename) == coroFile
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.SelectorExpr:
				if fn, ok := calleeFunc(pass.TypesInfo, s); ok && !pullOK && isPkgFunc(fn, "iter") && strings.HasPrefix(fn.Name(), "Pull") {
					pass.Reportf(s.Pos(), "iter.%s in simulation package %s starts a goroutine; only %s/%s may", fn.Name(), scope, coroScope, coroFile)
				}
			case *ast.GoStmt:
				pass.Reportf(s.Pos(),
					"go statement in simulation package %s; simulations are single-goroutine — host concurrency belongs to internal/run's worker pool", scope)
			case *ast.SendStmt:
				pass.Reportf(s.Pos(), "channel send in simulation package %s; simulations are single-goroutine", scope)
			case *ast.UnaryExpr:
				if s.Op == token.ARROW {
					pass.Reportf(s.Pos(), "channel receive in simulation package %s; simulations are single-goroutine", scope)
				}
			case *ast.SelectStmt:
				pass.Reportf(s.Pos(), "select statement in simulation package %s; simulations are single-goroutine", scope)
			case *ast.RangeStmt:
				if isChanType(pass.TypesInfo.Types[s.X].Type) {
					pass.Reportf(s.Pos(), "range over channel in simulation package %s; simulations are single-goroutine", scope)
				}
			case *ast.CallExpr:
				if isBuiltin(pass, s.Fun, "close") {
					pass.Reportf(s.Pos(), "channel close in simulation package %s; simulations are single-goroutine", scope)
				}
				if isBuiltin(pass, s.Fun, "make") && isChanType(pass.TypesInfo.Types[s].Type) {
					pass.Reportf(s.Pos(), "channel construction in simulation package %s; simulations are single-goroutine", scope)
				}
			}
			return true
		})
	}
	return nil
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
