package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
)

// Simhot enforces the PR 1/2 allocation-lean discipline on the simulation
// kernel's hot path. Three rules:
//
//  1. Anywhere in the module, the one kernel constructor that takes a name
//     string (Spawn) must not be handed an eagerly built name —
//     `Spawn(fmt.Sprintf("query%d", i), ...)` pays the Sprintf on every
//     spawn even when nobody reads the name. Use SpawnLazyID /
//     SpawnDaemonLazy / SpawnTaskLazy, whose name thunk runs only if Trace
//     (or a panic message) actually asks for it.
//
//  2. Inside any function statically reachable from the kernel package's
//     own functions — the per-event machinery: Hold, park, schedule, the
//     heap ops, Run, the pooled workers — fmt.Sprintf and runtime string
//     concatenation are flagged. Arguments to panic are exempt: a panic
//     message is the cold path by definition. The call graph is static
//     (direct calls and method calls on named types); process bodies are
//     invoked through closures the kernel cannot see, so operator code is
//     governed by rule 1 and by its own benchmarks, not by this walk.
//
//  3. Inside any function statically reachable from the execution engine's
//     roots (the functions ExecPkg declares in its OpFiles), per-row
//     allocation of the configured row type is flagged: `make(Tuple, …)` and
//     appends that grow a []Tuple. The engine's data plane is columnar
//     batches and arena storage; a per-tuple allocation type reappearing on
//     it silently reintroduces the costs the batch design removes.
var Simhot = &Analyzer{
	Name: "simhot",
	Doc:  "eager process names, string building on the sim kernel hot path, and per-tuple allocation on the execution engine hot path",
	Run:  runSimhot,
}

func runSimhot(u *Unit) {
	checkSpawnNames(u)
	checkHotReachable(u)
	checkRowAlloc(u)
}

// checkSpawnNames flags eager name arguments to the kernel's Spawn method.
func checkSpawnNames(u *Unit) {
	for _, pkg := range u.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Spawn" {
					return true
				}
				f, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || f.Pkg() == nil || f.Pkg().Path() != u.Config.SimPkg {
					return true
				}
				if eagerName(pkg.Info, call.Args[0]) {
					u.Report(call.Pos(), "Spawn with an eagerly built name argument; use SpawnLazyID so the name is only built when traced")
				}
				return true
			})
		}
	}
}

// eagerName reports whether the name expression does per-call work:
// a fmt.Sprintf call or a non-constant string concatenation.
func eagerName(info *types.Info, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		return isPkgFunc(info, e.Fun, "fmt", "Sprintf")
	case *ast.BinaryExpr:
		return isRuntimeConcat(info, e)
	}
	return false
}

// isRuntimeConcat reports whether e is a string + that survives to runtime
// (constant folding makes "a"+"b" free; those are not flagged).
func isRuntimeConcat(info *types.Info, e *ast.BinaryExpr) bool {
	if e.Op != token.ADD {
		return false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil { // untyped or typed constant: folded at compile time
		return false
	}
	t := tv.Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// checkHotReachable closes the shared call graph over the kernel package's
// functions and flags string building inside the closure.
func checkHotReachable(u *Unit) {
	g := u.Graph()
	for _, f := range g.Closure(g.FuncsIn(u.Config.SimPkg)) {
		b, _ := g.Body(f)
		flagStringWork(u, b.pkg, f, b.decl.Body)
	}
}

// checkRowAlloc closes the shared call graph over the execution engine's
// roots — the functions ExecPkg declares in its OpFiles — and flags per-row
// allocation of the configured row type inside the closure.
func checkRowAlloc(u *Unit) {
	cfg := u.Config
	if cfg.ExecPkg == "" || len(cfg.OpFiles) == 0 || cfg.RowType == "" {
		return
	}
	g := u.Graph()
	var roots []*types.Func
	for _, f := range g.FuncsIn(cfg.ExecPkg) {
		b, _ := g.Body(f)
		base := filepath.Base(u.Fset.Position(b.decl.Pos()).Filename)
		if slices.Contains(cfg.OpFiles, base) {
			roots = append(roots, f)
		}
	}
	for _, f := range g.Closure(roots) {
		b, _ := g.Body(f)
		flagTupleAlloc(u, b.pkg, f, b.decl.Body)
	}
}

// isRowType reports whether t is the configured per-row type.
func isRowType(cfg *Config, t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == cfg.RowType && obj.Pkg() != nil && obj.Pkg().Path() == cfg.ExecPkg
}

// flagTupleAlloc reports make(Tuple, …) and appends growing a []Tuple in
// body: the per-row allocation patterns the columnar data plane bans.
func flagTupleAlloc(u *Unit, pkg *Package, f *types.Func, body *ast.BlockStmt) {
	cfg := u.Config
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		switch id.Name {
		case "make":
			if isRowType(cfg, typeOf(pkg.Info, call.Args[0])) {
				u.Report(call.Pos(), "make(%s, …) in %s, which is reachable from the engine hot path; write into the columnar batch or the query arena instead",
					cfg.RowType, f.Name())
			}
		case "append":
			if s, ok := sliceType(typeOf(pkg.Info, call.Args[0])); ok && isRowType(cfg, s.Elem()) {
				u.Report(call.Pos(), "append of %s values in %s, which is reachable from the engine hot path; write into the columnar batch or the query arena instead",
					cfg.RowType, f.Name())
			}
		}
		return true
	})
}

// sliceType unwraps t to its underlying slice type, if it is one.
func sliceType(t types.Type) (*types.Slice, bool) {
	if t == nil {
		return nil, false
	}
	s, ok := t.Underlying().(*types.Slice)
	return s, ok
}

// flagStringWork reports Sprintf calls and runtime concats in body, skipping
// panic arguments.
func flagStringWork(u *Unit, pkg *Package, f *types.Func, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "panic" {
					return false // panic message: cold by definition
				}
			}
			if isPkgFunc(pkg.Info, n.Fun, "fmt", "Sprintf") {
				u.Report(n.Pos(), "fmt.Sprintf in %s, which is reachable from the sim kernel hot path; build strings lazily or off the hot path", f.Name())
			}
		case *ast.BinaryExpr:
			if isRuntimeConcat(pkg.Info, n) {
				u.Report(n.Pos(), "string concatenation in %s, which is reachable from the sim kernel hot path; build strings lazily or off the hot path", f.Name())
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if t := typeOf(pkg.Info, n.Lhs[0]); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						u.Report(n.Pos(), "string += in %s, which is reachable from the sim kernel hot path; build strings lazily or off the hot path", f.Name())
					}
				}
			}
		}
		return true
	})
}
