package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// ChargeTwin checks the scalekern kernel twins. Each weak-scaling kernel
// is written as a Task (what the scale experiment runs) and as a blocking
// body (the reference program TestKernelsMatchBlocking compares the two
// drivers with); the comparison is only meaningful if the two make the
// same primitive calls with the same compute charges in the same order.
// The analyzer extracts both sequences and reports any pair that is not
// statement-for-statement identical.
//
// The convention: a function <x>Body pairs with the Step method of type
// <x>Task (radixBody ↔ radixTask.Step). Sequences are the splitc
// primitive calls on the subject processor, with the trailing "T"
// stripped (WriteWordT ≡ WriteWord) and compute charges compared with
// their argument expressions. The primitives themselves need no such
// check: each is implemented once and both drivers run it.
var ChargeTwin = &Analyzer{
	Name: "chargetwin",
	Doc:  "verify blocking/continuation twin pairs issue statement-for-statement identical charge sequences",
	Run:  runChargeTwin,
}

// chargetwinScopes are the packages holding twin pairs.
func chargetwinScopes() []string {
	return []string{"internal/apps/scalekern"}
}

func runChargeTwin(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), chargetwinScopes()) {
		return nil
	}
	checkKernelTwins(pass, newDeclIndex(pass))
	return nil
}

// A chargeOp is one element of an extracted charge sequence.
type chargeOp struct {
	op  string
	arg string // argument expression text, for compute charges
}

func (c chargeOp) String() string {
	if c.arg != "" {
		return c.op + "(" + c.arg + ")"
	}
	return c.op
}

// declIndex maps the package's function declarations by name and by
// receiver type for twin pairing.
type declIndex struct {
	funcs   map[string]*ast.FuncDecl
	methods map[string]map[string]*ast.FuncDecl
}

func newDeclIndex(pass *Pass) *declIndex {
	idx := &declIndex{
		funcs:   map[string]*ast.FuncDecl{},
		methods: map[string]map[string]*ast.FuncDecl{},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv == nil {
				idx.funcs[fd.Name.Name] = fd
				continue
			}
			r := recvTypeName(fd)
			if r == "" {
				continue
			}
			if idx.methods[r] == nil {
				idx.methods[r] = map[string]*ast.FuncDecl{}
			}
			idx.methods[r][fd.Name.Name] = fd
		}
	}
	return idx
}

// recvTypeName returns the receiver's named type ("Proc" for *Proc).
func recvTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// walkCalls visits every call expression in n in source order, without
// descending into function literals: a closure passed as a handler runs
// (and charges) on the processor that receives the message, in both
// modes, so its body is outside the issuing sequence.
func walkCalls(n ast.Node, fn func(*ast.CallExpr)) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			fn(call)
		}
		return true
	})
}

func argText(call *ast.CallExpr, i int) string {
	if i >= len(call.Args) {
		return ""
	}
	return types.ExprString(call.Args[i])
}

// kernelChargeNames are the subject-processor calls that charge time or
// traffic, compared between kernel twins after stripping the trailing
// "T" of the continuation forms.
var kernelChargeNames = map[string]bool{
	"Compute": true, "ComputeUs": true,
	"WriteWord": true, "WriteWordSync": true, "ReadWord": true,
	"BulkPut": true, "BulkGet": true,
	"Barrier": true, "StoreSync": true,
	"ScanAdd": true, "Broadcast": true,
	"AllReduce": true, "AllReduceSum": true, "AllReduceMax": true,
	"FetchAdd": true, "TryLock": true, "Lock": true, "Unlock": true,
	"CompareSwap": true,
}

func checkKernelTwins(pass *Pass, idx *declIndex) {
	names := make([]string, 0, len(idx.funcs))
	for name := range idx.funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		kernel, ok := strings.CutSuffix(name, "Body")
		if !ok || kernel == "" {
			continue
		}
		step := idx.methods[kernel+"Task"]["Step"]
		if step == nil {
			continue
		}
		body := idx.funcs[name]
		bOps := kernelOps(pass, body)
		cOps := kernelOps(pass, step)
		reportTwinDiff(pass, step, name, bOps, cOps)
	}
}

// kernelOps extracts the charge sequence of one kernel twin: primitive
// calls on the subject processor, in source order.
func kernelOps(pass *Pass, fd *ast.FuncDecl) []chargeOp {
	subj := kernelSubject(pass, fd)
	if subj == nil {
		return nil
	}
	var ops []chargeOp
	walkCalls(fd.Body, func(call *ast.CallExpr) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[x] != subj {
			return
		}
		name := strings.TrimSuffix(sel.Sel.Name, "T")
		if !kernelChargeNames[name] {
			return
		}
		op := chargeOp{op: name}
		if name == "Compute" || name == "ComputeUs" {
			op.arg = argText(call, 0)
		}
		ops = append(ops, op)
	})
	return ops
}

// kernelSubject is the processor value a kernel twin runs on: for a
// Body function its first parameter; for a Step method its single
// parameter (the receiver holds the continuation's persistent state,
// not the processor).
func kernelSubject(pass *Pass, fd *ast.FuncDecl) types.Object {
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 || len(params.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[params.List[0].Names[0]]
}

// reportTwinDiff compares two charge sequences and reports the first
// divergence at the continuation twin's declaration.
func reportTwinDiff(pass *Pass, cont *ast.FuncDecl, blockingName string, bOps, cOps []chargeOp) {
	n := len(bOps)
	if len(cOps) < n {
		n = len(cOps)
	}
	for i := 0; i < n; i++ {
		if bOps[i] != cOps[i] {
			pass.Reportf(cont.Pos(), "charge sequence of %s diverges from blocking twin %s at step %d: %s vs %s",
				cont.Name.Name, blockingName, i+1, cOps[i], bOps[i])
			return
		}
	}
	if len(bOps) != len(cOps) {
		pass.Reportf(cont.Pos(), "charge sequence of %s has %d op(s), blocking twin %s has %d: the twins must charge identically",
			cont.Name.Name, len(cOps), blockingName, len(bOps))
	}
}
