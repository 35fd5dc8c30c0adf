// Package determinism statically enforces byte-identical
// reproducibility across the packages a simulation is built from. The
// paper's methodology (minimum runtime over perturbed seeds) and this
// repo's whole result-store design (spec.Canonical content addresses)
// assume a spec plus a seed fully determines every output byte; the
// golden-output and worker-count-equivalence tests check that at
// runtime, and this analyzer rejects the constructs that break it:
//
//   - time.Now and friends: wall-clock input makes runs irreproducible.
//     Simulated time lives in sim.Time.
//   - The global math/rand generators: shared mutable seed state across
//     simulations. All randomness flows from sim.RNG (or an explicitly
//     seeded local source).
//   - Ranging over a map when the iteration order can reach output:
//     Go's map order is deliberately randomized. Collect-then-sort
//     loops are recognized and allowed (a sort call after the loop in
//     the same function); provably order-insensitive loops are marked
//     //determinism:unordered.
//   - Goroutine creation outside tsnoop/internal/parallel: scheduling
//     nondeterminism is confined to the one package whose ordered
//     fan-in machinery (parallel.Stream) is equivalence-tested at every
//     worker count.
//
// internal/cluster sits inside the contract too — forwarding a spec to
// a peer must return the exact bytes local compute would have produced
// — but it legitimately paces retries against real time. Those uses
// carry //determinism:wallclock (and a hypothetical goroutine,
// //determinism:goroutine) markers asserting the nondeterminism never
// reaches result bytes; unmarked uses are still flagged.
//
// internal/fault is covered for the same reason: a chaos run must be
// reproducible from its schedule seed alone, so failpoint decisions may
// never read the wall clock or global math/rand — injected delays are
// returned as durations for service-edge call sites to sleep on.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"tsnoop/internal/analysis"
)

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock reads, global math/rand, unordered map iteration and stray goroutines in the simulation's deterministic core",
	Run:  run,
}

// Marker documents a map range whose body is order-insensitive by
// construction (e.g. writes to disjoint keyed destinations).
const Marker = "//determinism:unordered"

// WallClockMarker documents a wall-clock read whose value provably
// never shapes output bytes (e.g. retry pacing in internal/cluster).
const WallClockMarker = "//determinism:wallclock"

// GoroutineMarker documents a goroutine whose scheduling provably
// never reorders output (e.g. a fire-and-forget counter flush).
const GoroutineMarker = "//determinism:goroutine"

// parallelPath is the one package allowed to create goroutines: its
// ordered fan-in is the determinism boundary.
const parallelPath = "tsnoop/internal/parallel"

// deterministic lists the packages the reproducibility contract covers:
// everything a simulation's output is computed from. Service, CLI and
// tooling packages deal in wall-clock time and concurrency by design
// and are exempt.
var deterministic = []string{
	"tsnoop/internal/sim",
	"tsnoop/internal/tsnet",
	"tsnoop/internal/network",
	"tsnoop/internal/processor",
	"tsnoop/internal/cache",
	"tsnoop/internal/coherence",
	"tsnoop/internal/timing",
	"tsnoop/internal/topology",
	"tsnoop/internal/workload",
	"tsnoop/internal/stats",
	"tsnoop/internal/system",
	"tsnoop/internal/harness",
	"tsnoop/internal/trace",
	"tsnoop/internal/spec",
	"tsnoop/internal/cluster",
	"tsnoop/internal/fault",
}

const protocolPrefix = "tsnoop/internal/protocol/"

// wallClock lists the time-package functions that read the wall clock
// (or schedule against it).
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Tick": true, "NewTicker": true, "NewTimer": true,
	"After": true, "AfterFunc": true,
}

// seededConstructors are the math/rand functions that build explicitly
// seeded local generators — the sanctioned escape hatch.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func covered(path string) bool {
	for _, p := range deterministic {
		if path == p {
			return true
		}
	}
	return strings.HasPrefix(path, protocolPrefix)
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if !covered(path) || path == parallelPath {
		return nil
	}
	for _, f := range pass.Files {
		v := &visitor{pass: pass}
		ast.Walk(v, f)
	}
	return nil
}

// visitor walks one file keeping the stack of enclosing functions, so
// the collect-then-sort exemption can look for a sort call after a map
// range within the same function. ast.Walk pairs every Visit(node) that
// returns a visitor with one Visit(nil) after the node's children;
// pushes maintains which of those pushed onto the function stack.
type visitor struct {
	pass   *analysis.Pass
	funcs  []ast.Node
	pushes []bool
}

func (v *visitor) Visit(n ast.Node) ast.Visitor {
	if n == nil {
		if v.pushes[len(v.pushes)-1] {
			v.funcs = v.funcs[:len(v.funcs)-1]
		}
		v.pushes = v.pushes[:len(v.pushes)-1]
		return nil
	}
	pass := v.pass
	isFunc := false
	switch n := n.(type) {
	case *ast.FuncDecl, *ast.FuncLit:
		isFunc = true
	case *ast.GoStmt:
		if !pass.MarkerAt(n.Pos(), GoroutineMarker) {
			pass.Reportf(n.Pos(),
				"goroutine created outside %s: scheduling nondeterminism must flow through the ordered worker pool, or carry %s", parallelPath, GoroutineMarker)
		}
	case *ast.RangeStmt:
		v.checkRange(n)
	case *ast.SelectorExpr:
		checkUse(pass, n.Sel)
		// Walk X (the receiver chain) but not Sel, which would
		// double-report through the Ident case. The nested Walk is
		// balanced on its own, so nothing is pushed here.
		ast.Walk(v, n.X)
		return nil
	case *ast.Ident:
		checkUse(pass, n)
	}
	if isFunc {
		v.funcs = append(v.funcs, n)
	}
	v.pushes = append(v.pushes, isFunc)
	return v
}

func (v *visitor) checkRange(n *ast.RangeStmt) {
	pass := v.pass
	tv, ok := pass.Info.Types[n.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if pass.MarkerAt(n.Pos(), Marker) {
		return
	}
	if len(v.funcs) > 0 && sortsAfter(pass, v.funcs[len(v.funcs)-1], n) {
		return
	}
	pass.Reportf(n.Pos(),
		"map iteration order is randomized and can reach ordered output; collect and sort the keys, or mark an order-insensitive body with %s", Marker)
}

// checkUse flags ident when it names a forbidden time or global
// math/rand function.
func checkUse(pass *analysis.Pass, ident *ast.Ident) {
	fn, ok := pass.Info.Uses[ident].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClock[fn.Name()] && !pass.MarkerAt(ident.Pos(), WallClockMarker) {
			pass.Reportf(ident.Pos(),
				"time.%s reads the wall clock; simulated time is sim.Time and must fully determine every output byte (mark provably output-free uses with %s)", fn.Name(), WallClockMarker)
		}
	case "math/rand", "math/rand/v2":
		sig, isSig := fn.Type().(*types.Signature)
		if isSig && sig.Recv() != nil {
			return // methods on an explicitly constructed *rand.Rand are fine
		}
		if !seededConstructors[fn.Name()] {
			pass.Reportf(ident.Pos(),
				"global math/rand.%s shares seed state across simulations; use sim.RNG or an explicitly seeded rand.New(rand.NewSource(seed))", fn.Name())
		}
	}
}

// sortsAfter reports whether the enclosing function calls a sort
// function at a position after the range statement — the
// collect-then-sort idiom.
func sortsAfter(pass *analysis.Pass, fn ast.Node, rng *ast.RangeStmt) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "sort":
			found = true
		case "slices":
			if strings.HasPrefix(obj.Name(), "Sort") {
				found = true
			}
		}
		return !found
	})
	return found
}
