// The call-graph engine. PR 3's analyzers were per-function and syntactic;
// the invariant that motivated this file — "flush the charge accumulator
// before every kernel-visible operation" — is a property of *paths through
// the call graph*, not of single functions. This file builds, once per lint
// run, a static cross-package call graph over the module and classifies
// every function by whether it can reach a *kernel-visible operation*: a
// simulation-kernel primitive that advances the virtual clock, moves a
// process between run queues, or schedules an event. The flow-sensitive
// passes (chargeflow, parksafe, detreach) and the `hslint -graph` debug mode
// all consume this one graph.
//
// The taxonomy of kernel-visible operations is rooted in the sim package's
// primitives (see kernelOps below): Spawn* (a new process, kernel task or
// clock dispatches at the current time), Simulator At/After (a callback is
// scheduled, exactly as a spawn schedules its first dispatch), Resource
// Use/UseRun/Acquire/Release (queueing and clock advance), Buffer
// Put/PutNow/Get/Close (park and wake), the Proc park points (Hold, Block, Yield,
// Unblock, Interrupt) and their task twins (Task Wake, Hold). Everything else — netsim transmits, disk
// requests, shard mailbox ops — is kernel-visible *transitively*, because
// its implementation bottoms out in these primitives; rooting the taxonomy
// at the bottom keeps it closed under refactoring (a new disk scheduler is
// classified correctly the day it is written, with no table update). Config.SharedStateFuncs adds one more
// root class, "shared": functions that change state other processes read
// without any kernel event (a site's temp-region allocator), so their
// placement against the event schedule matters just as a primitive's does.
//
// Soundness limits, shared by every client pass: edges are static — direct
// calls and method calls on named types, including calls made inside
// closures of the enclosing function. Interface dispatch and calls through
// function-typed values are not resolved (the passes that care, like
// chargeflow, handle the interface case with their own type-based
// reasoning); a function referenced but never called (method value passed
// as a callback) contributes no *call* edge. The graph separately records
// reference edges (RefCallers) — "this body mentions that function" — which
// detreach's reverse reachability follows so a daemon body handed to Spawn
// still counts as reachable from its spawner.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// fnBody pairs a function declaration's AST with its package, for
// cross-package call-graph walks.
type fnBody struct {
	decl *ast.FuncDecl
	pkg  *Package
}

// kernelOps is the taxonomy of kernel-visible operations: methods of the
// configured SimPkg, by receiver type name, mapped to the operation class
// used in findings and -graph output.
var kernelOps = map[string]map[string]string{
	"Simulator": {
		"Spawn": "spawn", "SpawnLazyID": "spawn", "SpawnDaemonLazy": "spawn",
		"SpawnTaskLazy": "spawn", "SpawnClock": "spawn", "At": "timer", "After": "timer",
	},
	"Resource": {
		"Use": "resource", "UseRun": "resource",
		"Acquire": "resource", "Release": "resource",
	},
	"Buffer": {
		"Put": "buffer", "PutNow": "buffer", "Get": "buffer", "Close": "buffer",
	},
	"Proc": {
		"Hold": "park", "Block": "park", "Yield": "park",
		"Unblock": "park", "Interrupt": "park",
	},
	"Ref": {
		"Unblock": "park", "Interrupt": "park",
	},
	"Task": {
		"Wake": "park", "Hold": "park",
	},
}

// callEdge is one static call: callee, at the position of the call
// expression in the caller's body.
type callEdge struct {
	callee *types.Func
	pos    token.Pos
}

// CallGraph is the module's static call graph plus the kernel-visible
// reachability closure. Build one per Unit via Unit.Graph (memoized).
type CallGraph struct {
	unit *Unit

	bodies map[*types.Func]fnBody
	funcs  []*types.Func // every function with a body, sorted by position

	calls   map[*types.Func][]callEdge    // caller → callees (deduped, source order)
	callers map[*types.Func][]*types.Func // callee → callers (sorted by position)

	// refCallers is the looser reverse relation: f → functions whose bodies
	// *reference* f at all, including method values and function identifiers
	// passed as arguments (a daemon body handed to Spawn, a callback). Used
	// by detreach, where "the deterministic code can cause f to run" is the
	// question; the kernel-visibility and hot-path closures stay on real
	// call edges.
	refCallers map[*types.Func][]*types.Func

	// kernel-visible closure: for every function that can reach a kernel
	// primitive, the next hop of a shortest chain (nil for a primitive
	// itself) and, for primitives, the operation class.
	kernelNext map[*types.Func]*types.Func
	primClass  map[*types.Func]string
}

// Graph returns the module's call graph, building it on first use.
func (u *Unit) Graph() *CallGraph {
	if u.cg == nil {
		u.cg = newCallGraph(u)
	}
	return u.cg
}

func newCallGraph(u *Unit) *CallGraph {
	g := &CallGraph{
		unit:       u,
		bodies:     make(map[*types.Func]fnBody),
		calls:      make(map[*types.Func][]callEdge),
		callers:    make(map[*types.Func][]*types.Func),
		refCallers: make(map[*types.Func][]*types.Func),
		kernelNext: make(map[*types.Func]*types.Func),
		primClass:  make(map[*types.Func]string),
	}
	for _, pkg := range u.Packages {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[decl.Name].(*types.Func); ok {
					g.bodies[obj] = fnBody{decl, pkg}
					g.funcs = append(g.funcs, obj)
				}
			}
		}
	}
	sort.Slice(g.funcs, func(i, j int) bool { return g.funcs[i].Pos() < g.funcs[j].Pos() })

	for _, f := range g.funcs {
		b := g.bodies[f]
		seen := make(map[*types.Func]bool)
		refSeen := make(map[*types.Func]bool)
		ast.Inspect(b.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if callee := StaticCallee(b.pkg.Info, n); callee != nil && !seen[callee] {
					seen[callee] = true
					g.calls[f] = append(g.calls[f], callEdge{callee, n.Pos()})
				}
			case *ast.Ident:
				if ref, ok := b.pkg.Info.Uses[n].(*types.Func); ok && ref != f && !refSeen[ref] {
					refSeen[ref] = true
					g.refCallers[ref] = append(g.refCallers[ref], f)
				}
			}
			return true
		})
		for _, e := range g.calls[f] {
			g.callers[e.callee] = append(g.callers[e.callee], f)
		}
	}
	for _, cs := range g.callers {
		sort.Slice(cs, func(i, j int) bool { return cs[i].Pos() < cs[j].Pos() })
	}
	for _, cs := range g.refCallers {
		sort.Slice(cs, func(i, j int) bool { return cs[i].Pos() < cs[j].Pos() })
	}

	g.closeKernel()
	return g
}

// StaticCallee resolves a call expression to the *types.Func it statically
// names: a package-level function, a method on a named type, or an interface
// method. Calls through function-typed values (fields, locals, parameters)
// resolve to nil.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// kernelOpClass reports the operation class of f if it is one of the sim
// kernel primitives in the taxonomy, else "".
func (g *CallGraph) kernelOpClass(f *types.Func) string {
	if slices.Contains(g.unit.Config.SharedStateFuncs, f.FullName()) {
		return "shared"
	}
	if f.Pkg() == nil || f.Pkg().Path() != g.unit.Config.SimPkg {
		return ""
	}
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	if !ok {
		return ""
	}
	if ops, ok := kernelOps[n.Obj().Name()]; ok {
		return ops[f.Name()]
	}
	return ""
}

// closeKernel runs a reverse BFS from the kernel primitives, recording for
// every function that reaches one the next hop of a shortest chain.
func (g *CallGraph) closeKernel() {
	var work []*types.Func
	for _, f := range g.funcs {
		if class := g.kernelOpClass(f); class != "" {
			g.primClass[f] = class
			g.kernelNext[f] = nil
			work = append(work, f)
		}
	}
	for len(work) > 0 {
		f := work[0]
		work = work[1:]
		for _, caller := range g.callers[f] {
			if _, seen := g.kernelNext[caller]; seen || g.primClass[caller] != "" {
				continue
			}
			g.kernelNext[caller] = f
			work = append(work, caller)
		}
	}
}

// KernelVisible reports whether f is, or statically reaches, a kernel
// primitive.
func (g *CallGraph) KernelVisible(f *types.Func) bool {
	_, ok := g.kernelNext[f]
	return ok
}

// KernelChain returns a shortest static call chain from f to a kernel
// primitive (f first, primitive last), or nil if f is not kernel-visible.
func (g *CallGraph) KernelChain(f *types.Func) []*types.Func {
	if !g.KernelVisible(f) {
		return nil
	}
	chain := []*types.Func{f}
	for next := g.kernelNext[f]; next != nil; next = g.kernelNext[next] {
		chain = append(chain, next)
	}
	return chain
}

// KernelOpClass reports the operation class ("spawn", "timer", "resource",
// "buffer", "park", "shared") of the primitive at the end of f's shortest
// kernel chain, or "" if f is not kernel-visible.
func (g *CallGraph) KernelOpClass(f *types.Func) string {
	chain := g.KernelChain(f)
	if chain == nil {
		return ""
	}
	return g.primClass[chain[len(chain)-1]]
}

// FuncsIn returns every function with a body declared in the package, in
// source order.
func (g *CallGraph) FuncsIn(pkgPath string) []*types.Func {
	var out []*types.Func
	for _, f := range g.funcs {
		if g.bodies[f].pkg.Path == pkgPath {
			out = append(out, f)
		}
	}
	return out
}

// Body returns f's declaration and package, if f is declared with a body in
// the module.
func (g *CallGraph) Body(f *types.Func) (fnBody, bool) {
	b, ok := g.bodies[f]
	return b, ok
}

// Closure returns every function statically reachable from roots (including
// the roots), in source order.
func (g *CallGraph) Closure(roots []*types.Func) []*types.Func {
	reach := make(map[*types.Func]bool)
	work := make([]*types.Func, 0, len(roots))
	for _, r := range roots {
		if _, ok := g.bodies[r]; ok && !reach[r] {
			reach[r] = true
			work = append(work, r)
		}
	}
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range g.calls[f] {
			if !reach[e.callee] {
				if _, ok := g.bodies[e.callee]; ok {
					reach[e.callee] = true
					work = append(work, e.callee)
				}
			}
		}
	}
	var out []*types.Func
	for _, f := range g.funcs {
		if reach[f] {
			out = append(out, f)
		}
	}
	return out
}

// Callers returns the functions that statically call f, sorted by position.
func (g *CallGraph) Callers(f *types.Func) []*types.Func { return g.callers[f] }

// RefCallers returns the functions whose bodies reference f at all —
// calling it, taking a method value, or passing it as an argument.
func (g *CallGraph) RefCallers(f *types.Func) []*types.Func { return g.refCallers[f] }

// FuncName renders f compactly relative to the module: the package's last
// path element, the receiver type if any, and the function name —
// "exec.(*scanIter).next", "sim.New".
func (g *CallGraph) FuncName(f *types.Func) string { return shortFuncName(f) }

func shortFuncName(f *types.Func) string {
	pkg := ""
	if f.Pkg() != nil {
		parts := strings.Split(f.Pkg().Path(), "/")
		pkg = parts[len(parts)-1] + "."
	}
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if p, ok := t.(*types.Pointer); ok {
			t, star = p.Elem(), "*"
		}
		if n, ok := t.(*types.Named); ok {
			return pkg + "(" + star + n.Obj().Name() + ")." + f.Name()
		}
	}
	return pkg + f.Name()
}

// ChainString renders a call chain as "a → b → c".
func ChainString(chain []*types.Func) string {
	names := make([]string, len(chain))
	for i, f := range chain {
		names[i] = shortFuncName(f)
	}
	return strings.Join(names, " → ")
}

// Resolve matches pattern against every function in the graph: the pattern
// matches if, after stripping "(", ")" and "*" from the fully qualified
// name, the pattern is a substring — so "scanIter.next", "exec.runPlan" and
// bare "destageOne" all work. Matches are returned in source order.
func (g *CallGraph) Resolve(pattern string) []*types.Func {
	norm := func(s string) string {
		return strings.NewReplacer("(", "", ")", "", "*", "").Replace(s)
	}
	want := norm(pattern)
	var out []*types.Func
	for _, f := range g.funcs {
		full := f.Pkg().Path() + "." + shortFuncName(f)
		if strings.Contains(norm(full), want) {
			out = append(out, f)
		}
	}
	return out
}
