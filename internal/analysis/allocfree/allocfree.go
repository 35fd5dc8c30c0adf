// Package allocfree statically enforces the PR-5 zero-allocation
// hot-path contract in the simulator's dispatch-critical packages:
//
//   - The `any` payload arguments of AtCall/AfterCall accept only
//     pointer-shaped values (pointers, interfaces, funcs, maps, chans,
//     nil): boxing a struct, slice, string or integer into an interface
//     allocates per event.
//   - Functions reachable from event dispatch (anything scheduled as an
//     EventFn, plus everything they call inside the package) may not
//     allocate maps or iterate maps: per-event map allocation defeats
//     the allocation budget, and map iteration order would additionally
//     break byte-identical determinism.
//   - Telemetry probes (obs.Probe) on the dispatch path follow the
//     hoisted nil-guard shape: `if pr := x.probe; pr != nil { pr.Span(...) }`.
//     A probe method called through a field chain skips the hoist (and
//     usually the guard), and a probe method called from a closure
//     captures its environment and allocates per event — both are
//     diagnostics; the direct call on a guarded local is blessed.
//
// The runtime counterparts of these rules are the AllocsPerRun budgets
// (TestKernelAllocs, TestBroadcastAllocs, TestMissAllocs, and their
// spans-on twins TestBroadcastAllocsTraced / TestMissAllocsTraced);
// this analyzer turns a budget regression from a test failure into a
// diagnostic at the offending line.
package allocfree

import (
	"go/ast"
	"go/types"
	"strings"

	"tsnoop/internal/analysis"
)

// Analyzer is the allocfree pass.
var Analyzer = &analysis.Analyzer{
	Name: "allocfree",
	Doc:  "forbid interface boxing, map traffic and unhoisted probe calls on the simulator's allocation-free hot paths",
	Run:  run,
}

// simPath is the import path of the kernel package; the analyzer keys
// on the Kernel methods declared there.
const simPath = "tsnoop/internal/sim"

// obsPath is the import path of the telemetry package; the probe-shape
// rules key on methods of the Probe type declared there.
const obsPath = "tsnoop/internal/obs"

// hotPackages are the dispatch-critical packages the contract covers.
var hotPackages = []string{
	"tsnoop/internal/sim",
	"tsnoop/internal/tsnet",
	"tsnoop/internal/network",
	"tsnoop/internal/processor",
	"tsnoop/internal/cache",
	"tsnoop/internal/coherence",
	"tsnoop/internal/obs",
}

const hotPrefix = "tsnoop/internal/protocol/"

func hot(path string) bool {
	for _, p := range hotPackages {
		if path == p {
			return true
		}
	}
	return strings.HasPrefix(path, hotPrefix)
}

func run(pass *analysis.Pass) error {
	if !hot(pass.Pkg.Path()) {
		return nil
	}
	// decls maps package-declared functions and methods to their bodies
	// so the dispatch reachability walk can follow static calls.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}

	// roots are the entry points of event dispatch: every function value
	// scheduled through AtCall/AfterCall.
	roots := make(map[*types.Func]bool)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := kernelMethod(pass, call)
			if !ok || len(call.Args) < 5 {
				return true
			}
			if fn := staticFunc(pass, call.Args[1]); fn != nil {
				roots[fn] = true
			}
			for _, arg := range call.Args[2:4] {
				checkBoxing(pass, name, arg)
			}
			return true
		})
	}

	// Walk the package-local static call graph from the dispatch roots.
	reachable := make(map[*types.Func]bool)
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if fn == nil || reachable[fn] {
			return
		}
		reachable[fn] = true
		fd, ok := decls[fn]
		if !ok || fd.Body == nil {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := staticFunc(pass, call.Fun); callee != nil {
				if _, local := decls[callee]; local {
					visit(callee)
				}
			}
			return true
		})
	}
	for fn := range roots {
		visit(fn)
	}

	// Report map allocation and map iteration inside the reachable set.
	checkMapTraffic := func(where string, body ast.Node) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// A nested closure is its own allocation problem; its body
				// still runs on the dispatch path, so keep walking.
				return true
			case *ast.RangeStmt:
				if t, ok := pass.Info.Types[n.X]; ok {
					if _, isMap := t.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "map iteration in %s, reachable from event dispatch: order is nondeterministic and the hot path must not touch maps", where)
					}
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 {
					if t, ok := pass.Info.Types[n.Args[0]]; ok {
						if _, isMap := t.Type.Underlying().(*types.Map); isMap {
							pass.Reportf(n.Pos(), "map allocated in %s, reachable from event dispatch: per-event map allocation breaks the zero-alloc budget", where)
						}
					}
				}
			case *ast.CompositeLit:
				if t, ok := pass.Info.Types[n]; ok {
					if _, isMap := t.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "map literal allocated in %s, reachable from event dispatch: per-event map allocation breaks the zero-alloc budget", where)
					}
				}
			}
			return true
		})
	}
	// Enforce the probe shape on the same set: a span-probe call on the
	// dispatch path must be a direct call on a hoisted (nil-guarded)
	// local, never through a field chain and never from a closure.
	var checkProbe func(body ast.Node, inClosure bool)
	checkProbe = func(body ast.Node, inClosure bool) {
		ast.Inspect(body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				checkProbe(lit.Body, true)
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, name, ok := probeMethod(pass, call)
			if !ok {
				return true
			}
			if inClosure {
				pass.Reportf(call.Pos(),
					"obs.Probe.%s called from a closure on the dispatch path: the closure captures the probe and allocates per event; emit spans from a package-level sim.EventFn behind a nil guard", name)
				return true
			}
			if _, ident := sel.X.(*ast.Ident); !ident {
				pass.Reportf(call.Pos(),
					"obs.Probe.%s called through a field chain on the dispatch path; hoist the probe into a nil-guarded local (if pr := x.probe; pr != nil { pr.%s(...) })", name, name)
			}
			return true
		})
	}

	for fn := range reachable {
		if fd, ok := decls[fn]; ok && fd.Body != nil {
			checkMapTraffic(fn.Name(), fd.Body)
			checkProbe(fd.Body, false)
		}
	}
	return nil
}

// kernelMethod reports whether call invokes a scheduling method of
// sim.Kernel, returning the method name.
func kernelMethod(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != simPath {
		return "", false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Kernel" {
		return "", false
	}
	switch obj.Name() {
	case "AtCall", "AfterCall":
		return obj.Name(), true
	}
	return "", false
}

// probeMethod reports whether call invokes a method of obs.Probe,
// returning the selector (whose X is the receiver expression the shape
// rules inspect) and the method name.
func probeMethod(pass *analysis.Pass, call *ast.CallExpr) (*ast.SelectorExpr, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	obj, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != obsPath {
		return nil, "", false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, "", false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Probe" {
		return nil, "", false
	}
	return sel, obj.Name(), true
}

// staticFunc resolves an expression to the *types.Func it statically
// names: a plain identifier, a method selector on a concrete receiver,
// or a qualified package function. Function values that flow through
// variables or interfaces resolve to nil.
func staticFunc(pass *analysis.Pass, e ast.Expr) *types.Func {
	switch e := e.(type) {
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[e].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.Info.Uses[e.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.ParenExpr:
		return staticFunc(pass, e.X)
	}
	return nil
}

// checkBoxing reports a value whose conversion to the any parameter of
// AtCall/AfterCall would heap-allocate.
func checkBoxing(pass *analysis.Pass, method string, arg ast.Expr) {
	tv, ok := pass.Info.Types[arg]
	if !ok {
		return
	}
	if tv.IsNil() {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Signature, *types.Map, *types.Chan:
		return
	case *types.Basic:
		if tv.Type.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return
		}
	}
	pass.Reportf(arg.Pos(),
		"%s boxes a %s into its any argument, allocating per event; pass a pointer (or fold scalars into the int64 slot)", method, tv.Type)
}
