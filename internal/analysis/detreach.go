package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Detreach lifts nodeterm from direct occurrence to reachability. Nodeterm
// polices the deterministic packages themselves; a helper package outside
// that list (catalog, disk, netsim, query, …) can still break the replay
// guarantee the moment a deterministic package calls into it. This pass
// collects nondeterminism *sinks* in the non-deterministic module packages —
// map-range loops whose iteration order escapes, selects decided by the
// scheduler, and wall-clock/global-rand calls in the timing-exempt packages
// nodeterm skips — and flags each sink that is transitively reachable, over
// the shared call graph, from an entry point of a deterministic package
// (an exported function, the surface those packages offer the rest of the
// system). The finding is positioned at the sink, where the fix or waiver
// belongs, and prints the call chain from the entry point so the reader can
// see how order-sensitivity flows into deterministic state.
//
// Unlike the kernel-visibility closure, the reverse walk here follows
// *reference* edges as well as call edges: a daemon body handed to Spawn as
// a method value, or a callback passed down a pipeline, counts as reachable
// from the function that passed it — "the deterministic code can cause this
// to run" is the question, not "there is a direct call".
//
// Soundness limits (DESIGN.md §13): interface dispatch is still not
// followed, and a function value stored in a struct field and invoked
// elsewhere is attributed to the storer, not the invoker. Sinks at package
// scope (variable initializers) have no enclosing function and are skipped;
// nodeterm still covers the deterministic packages directly.
var Detreach = &Analyzer{
	Name: "detreach",
	Doc:  "nondeterminism sinks in helper packages reachable from deterministic entry points",
	Run:  runDetreach,
}

type detSink struct {
	pos  token.Pos
	fn   *types.Func
	what string
}

func runDetreach(u *Unit) {
	g := u.Graph()
	var sinks []detSink
	for _, pkg := range u.Packages {
		if u.Config.deterministic(pkg.Path) {
			continue // nodeterm reports these directly, with no chain needed
		}
		sinks = append(sinks, collectSinks(u, g, pkg)...)
	}

	for _, s := range sinks {
		entry, chain := reachingEntry(u, g, s.fn)
		if entry == nil {
			continue
		}
		u.Report(s.pos, "%s in %s, which is reachable from deterministic entry point %s (%s); "+
			"order/scheduling/wall-clock here can reach deterministic results — fix, or waive with //hslint:allow detreach -- why",
			s.what, shortFuncName(s.fn), shortFuncName(entry), ChainString(chain))
	}
}

// collectSinks gathers the nondeterminism sinks declared in pkg, each
// attributed to its enclosing function.
func collectSinks(u *Unit, g *CallGraph, pkg *Package) []detSink {
	var sinks []detSink
	timingExempt := u.Config.timingExempt(pkg.Path)
	for _, f := range g.FuncsIn(pkg.Path) {
		b, _ := g.Body(f)
		fn := f
		seenRanges := make(map[*ast.RangeStmt]bool)
		ast.Inspect(b.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				mapRangeEscapes(pkg, n, func(at ast.Node, what string) {
					if seenRanges[n] {
						return // one sink per loop; the first escape names it
					}
					seenRanges[n] = true
					sinks = append(sinks, detSink{n.Pos(), fn, "map range (" + what + ")"})
				})
			case *ast.SelectStmt:
				if what := selectSinkDesc(n); what != "" {
					sinks = append(sinks, detSink{n.Pos(), fn, what})
				}
			case *ast.CallExpr:
				// In non-exempt packages nodeterm already flags these
				// module-wide; the exempt packages (cmd/, examples/) are
				// only a problem when deterministic code reaches into them.
				if timingExempt {
					if what := timingSinkDesc(pkg, n); what != "" {
						sinks = append(sinks, detSink{n.Pos(), fn, what})
					}
				}
			}
			return true
		})
	}
	return sinks
}

// selectSinkDesc describes a scheduler-decided select, or "" for the benign
// single-case form.
func selectSinkDesc(sel *ast.SelectStmt) string {
	switch kind, _ := classifySelect(sel); kind {
	case selectRandom:
		return "select choosing among ready communications at random"
	case selectPoll:
		return "select with default polling channel readiness"
	}
	return ""
}

// timingSinkDesc describes a wall-clock or global-rand call, or "".
func timingSinkDesc(pkg *Package, call *ast.CallExpr) string {
	switch kind, name := classifyTiming(pkg, call); kind {
	case wallClock:
		return "wall-clock time." + name
	case globalRand:
		return "global math/rand." + name
	}
	return ""
}

// reachingEntry walks the reverse call graph from fn to the nearest
// deterministic-package entry point (an exported function declared in a
// DeterministicPkgs package), returning it and the chain entry → … → fn.
func reachingEntry(u *Unit, g *CallGraph, fn *types.Func) (*types.Func, []*types.Func) {
	isEntry := func(f *types.Func) bool {
		return f.Exported() && f.Pkg() != nil && u.Config.deterministic(f.Pkg().Path())
	}
	next := map[*types.Func]*types.Func{fn: nil} // toward the sink
	queue := []*types.Func{fn}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		if isEntry(f) {
			var chain []*types.Func
			for c := f; c != nil; c = next[c] {
				chain = append(chain, c)
			}
			return f, chain
		}
		// Reference edges subsume call edges here: RefCallers includes
		// every function whose body mentions f at all.
		for _, caller := range g.RefCallers(f) {
			if _, seen := next[caller]; !seen {
				next[caller] = f
				queue = append(queue, caller)
			}
		}
	}
	return nil, nil
}
