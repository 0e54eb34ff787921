package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// ContSafe proves the continuation runtime's structural invariants in
// the packages that host resumable state machines (am/cont.go,
// splitc/cont.go, the scalekern kernels, and the paper apps written as
// Tasks: Radix, EM3D, Sample and Barnes). A continuation function —
// any function whose results include a PollableWait — is re-entered by
// the engine after every park, so three things must hold:
//
//  1. It never calls a blocking primitive (Await, WaitUntilFor, Checkpoint,
//     Poll, Sleep, SleepUntil, Request, Store): those wait by suspending
//     a stack that a resumable body does not have (the engine fails such
//     a run; this finds it before one). A poll function waits by
//     returning a wait instead.
//  2. Every opState sub-state literal it assigns is consumed by some
//     transition, and every literal it dispatches on is produced by
//     some assignment — no dead or unreachable machine states. Zero is
//     exempt as the idle/reset value.
//  3. No value read from the proc clock is captured into state that
//     survives a yield: on re-entry the clock has advanced, so a
//     persisted reading silently desynchronizes the timeline. The
//     check is a forward taint analysis over the function's CFG.
var ContSafe = &Analyzer{
	Name: "contsafe",
	Doc:  "verify continuation poll functions: no blocking calls, no dead opState sub-states, no clock reads captured across yields",
	Run:  runContSafe,
}

// contsafeScopes are the packages hosting continuation state machines.
func contsafeScopes() []string {
	return []string{
		"internal/am",
		"internal/splitc",
		"internal/apps/scalekern",
		"internal/apps/radix",
		"internal/apps/em3d",
		"internal/apps/sample",
		"internal/apps/barnes",
	}
}

// blockingPrimitives are the method names a continuation function must
// never call: each suspends the calling body (or, for Request/Store,
// may) instead of returning a wait to the engine.
var blockingPrimitives = map[string]bool{
	"Await":        true,
	"WaitUntilFor": true,
	"Checkpoint":   true,
	"Poll":         true,
	"Sleep":        true,
	"SleepUntil":   true,
	"Request":      true,
	"Store":        true,
}

func runContSafe(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), contsafeScopes()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !returnsPollableWait(fd.Type) {
				continue
			}
			checkNoBlocking(pass, fd)
			checkStateMachine(pass, fd)
			checkClockCapture(pass, fd)
		}
	}
	return nil
}

// returnsPollableWait reports whether the function's results include a
// type named PollableWait — the signature shape of a continuation
// function (TProc primitives, Task.Step, Resumable.Resume, and the am
// wait constructors all match).
func returnsPollableWait(ft *ast.FuncType) bool {
	if ft.Results == nil {
		return false
	}
	for _, f := range ft.Results.List {
		switch t := f.Type.(type) {
		case *ast.Ident:
			if t.Name == "PollableWait" {
				return true
			}
		case *ast.SelectorExpr:
			if t.Sel.Name == "PollableWait" {
				return true
			}
		}
	}
	return false
}

func checkNoBlocking(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if blockingPrimitives[sel.Sel.Name] {
			pass.Reportf(call.Pos(), "continuation function %s calls blocking primitive %s; return a wait to the engine instead",
				fd.Name.Name, sel.Sel.Name)
		}
		return true
	})
}

// ----- opState sub-state liveness -----

// stateInfo accumulates one state expression's produced and consumed
// integer literals within a single function.
type stateInfo struct {
	produced   map[int64]token.Pos
	cases      map[int64]token.Pos
	cmp        map[int64]token.Pos
	hasSwitch  bool
	openEnded  bool // a default case or non-literal case/comparand
	hasCompare bool
}

func newStateInfo() *stateInfo {
	return &stateInfo{
		produced: map[int64]token.Pos{},
		cases:    map[int64]token.Pos{},
		cmp:      map[int64]token.Pos{},
	}
}

// checkStateMachine verifies that within fd, every sub-state literal
// assigned to a persistent state cell is consumed by a transition, and
// every literal dispatched on is produced. A state cell is a selector
// chain rooted at the receiver or a parameter (t.op.pc, k.pc) that the
// function both assigns integer literals to and dispatches on (switch
// tag or ==/!= comparison).
func checkStateMachine(pass *Pass, fd *ast.FuncDecl) {
	roots := funcRoots(pass, fd)
	states := map[string]*stateInfo{}
	get := func(key string) *stateInfo {
		si := states[key]
		if si == nil {
			si = newStateInfo()
			states[key] = si
		}
		return si
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SwitchStmt:
			key, ok := stateKey(pass, n.Tag, roots)
			if !ok {
				return true
			}
			si := get(key)
			si.hasSwitch = true
			for _, c := range n.Body.List {
				cc := c.(*ast.CaseClause)
				if cc.List == nil {
					si.openEnded = true // default case consumes everything
					continue
				}
				for _, e := range cc.List {
					if v, ok := intLit(e); ok {
						if _, seen := si.cases[v]; !seen {
							si.cases[v] = e.Pos()
						}
					} else {
						si.openEnded = true // named-constant case: unknown value
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				key, ok := stateKey(pass, lhs, roots)
				if !ok {
					continue
				}
				if v, ok := intLit(n.Rhs[i]); ok {
					si := get(key)
					if _, seen := si.produced[v]; !seen {
						si.produced[v] = n.Rhs[i].Pos()
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return true
			}
			key, lit := "", int64(0)
			ok := false
			if k, isState := stateKey(pass, n.X, roots); isState {
				if v, isLit := intLit(n.Y); isLit {
					key, lit, ok = k, v, true
				} else {
					get(k).openEnded = true
				}
			} else if k, isState := stateKey(pass, n.Y, roots); isState {
				if v, isLit := intLit(n.X); isLit {
					key, lit, ok = k, v, true
				} else {
					get(k).openEnded = true
				}
			}
			if ok {
				si := get(key)
				si.hasCompare = true
				if _, seen := si.cmp[lit]; !seen {
					si.cmp[lit] = n.Pos()
				}
			}
		}
		return true
	})

	keys := make([]string, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		si := states[key]
		if !si.hasSwitch && !si.hasCompare {
			continue // assigned but never dispatched on: not a state cell
		}
		// Produced-but-never-consumed is decidable only under a closed
		// switch: a defaultless literal-cased switch enumerates every
		// transition, while ==/!= comparisons consume the complement
		// implicitly.
		if si.hasSwitch && !si.openEnded {
			for _, v := range sortedStateVals(si.produced) {
				if v == 0 {
					continue
				}
				if _, ok := si.cases[v]; ok {
					continue
				}
				if _, ok := si.cmp[v]; ok {
					continue
				}
				pass.Reportf(si.produced[v], "%s: state %s = %d is assigned but no transition consumes it (dead state)",
					fd.Name.Name, key, v)
			}
		}
		for _, v := range sortedStateVals(si.cases) {
			if v == 0 {
				continue
			}
			if _, ok := si.produced[v]; !ok {
				pass.Reportf(si.cases[v], "%s: state %s == %d is dispatched on but never assigned (unreachable state)",
					fd.Name.Name, key, v)
			}
		}
		for _, v := range sortedStateVals(si.cmp) {
			if v == 0 {
				continue
			}
			if _, dup := si.cases[v]; dup {
				continue
			}
			if _, ok := si.produced[v]; !ok {
				pass.Reportf(si.cmp[v], "%s: state %s == %d is dispatched on but never assigned (unreachable state)",
					fd.Name.Name, key, v)
			}
		}
	}
}

func sortedStateVals(m map[int64]token.Pos) []int64 {
	out := make([]int64, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// stateKey renders a selector chain rooted at one of roots (t.op.pc →
// "t.op.pc"); ok is false for any other expression shape.
func stateKey(pass *Pass, e ast.Expr, roots map[types.Object]bool) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	var parts []string
	for {
		parts = append(parts, sel.Sel.Name)
		switch x := sel.X.(type) {
		case *ast.SelectorExpr:
			sel = x
		case *ast.Ident:
			if !roots[pass.TypesInfo.Uses[x]] {
				return "", false
			}
			parts = append(parts, x.Name)
			key := ""
			for i := len(parts) - 1; i >= 0; i-- {
				if key != "" {
					key += "."
				}
				key += parts[i]
			}
			return key, true
		default:
			return "", false
		}
	}
}

func intLit(e ast.Expr) (int64, bool) {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return 0, false
	}
	v, err := strconv.ParseInt(lit.Value, 0, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// funcRoots collects the receiver and parameter objects of fd — the
// identifiers persistent state hangs off.
func funcRoots(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	roots := map[types.Object]bool{}
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				if o := pass.TypesInfo.Defs[n]; o != nil {
					roots[o] = true
				}
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return roots
}

// ----- clock capture across yields -----

// checkClockCapture runs a forward taint analysis over fd's CFG: values
// derived from a proc clock read (.Now() / .Clock()) taint the locals
// they flow into; storing a tainted value into a field of the receiver
// or a parameter persists it across the next yield, where it is stale.
func checkClockCapture(pass *Pass, fd *ast.FuncDecl) {
	roots := funcRoots(pass, fd)
	g := buildCFG(fd.Body)
	blocks := g.reachable()

	// Predecessor map for the join operation.
	preds := map[*cfgBlock][]*cfgBlock{}
	for _, b := range blocks {
		for _, s := range b.succs {
			preds[s] = append(preds[s], b)
		}
	}

	in := map[*cfgBlock]map[*types.Var]bool{}
	for _, b := range blocks {
		in[b] = map[*types.Var]bool{}
	}
	// Fixpoint: iterate in construction order until no in-set grows.
	// Taint only ever grows along edges, so this terminates.
	for changed := true; changed; {
		changed = false
		for _, b := range blocks {
			state := map[*types.Var]bool{}
			for _, p := range preds[b] {
				for v := range clockTransfer(pass, p, in[p], roots, nil) {
					state[v] = true
				}
			}
			for v := range state {
				if !in[b][v] {
					in[b][v] = true
					changed = true
				}
			}
		}
	}
	// Reporting sweep with converged entry states.
	reported := map[token.Pos]bool{}
	for _, b := range blocks {
		clockTransfer(pass, b, in[b], roots, func(pos token.Pos, format string, args ...any) {
			if !reported[pos] {
				reported[pos] = true
				pass.Reportf(pos, format, args...)
			}
		})
	}
}

// clockTransfer applies one block's statements to the taint state and
// returns the out-set. When report is non-nil, persistent stores of
// tainted values are reported (the reporting sweep); when nil the
// function only computes dataflow (the fixpoint sweep).
func clockTransfer(pass *Pass, b *cfgBlock, entry map[*types.Var]bool, roots map[types.Object]bool, report func(token.Pos, string, ...any)) map[*types.Var]bool {
	taint := map[*types.Var]bool{}
	for v := range entry {
		taint[v] = true
	}
	for _, n := range b.nodes {
		applyClockNode(pass, n, taint, roots, report)
	}
	return taint
}

func applyClockNode(pass *Pass, n ast.Node, taint map[*types.Var]bool, roots map[types.Object]bool, report func(token.Pos, string, ...any)) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		nr := len(s.Rhs)
		for i, lhs := range s.Lhs {
			var rhs ast.Expr
			if nr == len(s.Lhs) {
				rhs = s.Rhs[i]
			} else {
				rhs = s.Rhs[0] // multi-value call: shared taint
			}
			tainted := clockTainted(pass, rhs, taint)
			switch l := lhs.(type) {
			case *ast.Ident:
				if v, ok := objOf(pass, l).(*types.Var); ok {
					if tainted {
						taint[v] = true
					} else {
						delete(taint, v) // overwritten with a clean value
					}
				}
			case *ast.SelectorExpr:
				if !tainted {
					continue
				}
				if key, ok := stateKey(pass, l, roots); ok && report != nil {
					report(s.Pos(), "clock value is stored into %s, which survives a yield point; re-read the clock after resuming", key)
				}
			}
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if i >= len(vs.Values) {
					continue
				}
				if clockTainted(pass, vs.Values[i], taint) {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						taint[v] = true
					}
				}
			}
		}
	}
}

func objOf(pass *Pass, id *ast.Ident) types.Object {
	if o := pass.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return pass.TypesInfo.Uses[id]
}

// clockTainted reports whether e reads the proc clock (a .Now() or
// .Clock() method call) or references a tainted local.
func clockTainted(pass *Pass, e ast.Expr, taint map[*types.Var]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "Now" || sel.Sel.Name == "Clock" {
					found = true
					return false
				}
			}
		case *ast.Ident:
			if v, ok := pass.TypesInfo.Uses[n].(*types.Var); ok && taint[v] {
				found = true
				return false
			}
		case *ast.FuncLit:
			return false
		}
		return true
	})
	return found
}
