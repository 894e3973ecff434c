package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Nodeterm guards the repo's byte-identical-output invariant against the
// two classic leak channels:
//
//  1. In the deterministic packages, a `range` over a map whose body writes
//     to (or returns) anything living outside the loop: Go randomises map
//     iteration order, so such a loop can change results run to run. A
//     plain assignment into an outer map (`dst[k] = v`) is allowed — each
//     key gets exactly one value per iteration, so order cannot matter
//     unless keys collide, which the waiver audit covers. Everything else —
//     appends, accumulation (`+=`, `++`), sends, writes to outer scalars,
//     and value-returning `return` statements — is flagged unless the range
//     line carries `//hslint:ordered -- why`. So is a call in the body to a
//     function that can reach a kernel-visible operation (the call graph's
//     closure, callgraph.go): a spawn, a wake or a hold takes a seq, so the
//     loop would order same-instant events by map iteration.
//
//  2. Wall-clock and ambient randomness anywhere outside the interactive
//     entry points (cmd/, examples/): time.Now and time.Since read the host
//     clock, and package-level math/rand functions (rand.Int, rand.Intn,
//     rand.Seed, ...) share one global, lock-guarded source whose
//     interleaving depends on scheduling. Simulation code must take its
//     time from sim.Now and its randomness from a *rand.Rand seeded via
//     internal/seedmix.
//
//  3. In the deterministic packages, a `select` that can choose between
//     communications: when several cases are ready the runtime picks one
//     uniformly at random, and a default clause turns the statement into a
//     poll whose answer depends on which goroutine ran first. Either way
//     cross-goroutine ordering leaks into the execution. The parallel
//     kernel (internal/shard) exists precisely to avoid this: cross-shard
//     interactions go through its deterministically merged mailboxes, and
//     the shard barrier uses a WaitGroup, not a select. A single-case
//     select without default is equivalent to the plain channel operation
//     and is allowed.
var Nodeterm = &Analyzer{
	Name: "nodeterm",
	Doc:  "map-iteration order, wall-clock or global rand reaching deterministic results",
	Run:  runNodeterm,
}

// randConstructors are the package-level math/rand functions that build
// seeded values instead of touching the global source.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func runNodeterm(u *Unit) {
	for _, pkg := range u.Packages {
		det := u.Config.deterministic(pkg.Path)
		timingExempt := u.Config.timingExempt(pkg.Path)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.RangeStmt:
					if det {
						checkMapRange(u, pkg, n)
					}
				case *ast.SelectStmt:
					if det {
						checkSelect(u, n)
					}
				case *ast.CallExpr:
					if !timingExempt {
						checkTimingAndRand(u, pkg, n)
					}
				}
				return true
			})
		}
	}
}

// timingKind classifies a call as a wall-clock read, a global-rand call, or
// neither.
type timingKind int

const (
	notTiming  timingKind = iota
	wallClock             // time.Now, time.Since
	globalRand            // package-level math/rand other than a constructor
)

// classifyTiming reports what kind of nondeterministic call call is, and
// the called function's name. Methods (e.g. (*rand.Rand).Intn) are fine.
func classifyTiming(pkg *Package, call *ast.CallExpr) (timingKind, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return notTiming, ""
	}
	f, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil {
		return notTiming, ""
	}
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		return notTiming, ""
	}
	switch f.Pkg().Path() {
	case "time":
		if f.Name() == "Now" || f.Name() == "Since" {
			return wallClock, f.Name()
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[f.Name()] {
			return globalRand, f.Name()
		}
	}
	return notTiming, ""
}

func checkTimingAndRand(u *Unit, pkg *Package, call *ast.CallExpr) {
	switch kind, name := classifyTiming(pkg, call); kind {
	case wallClock:
		u.Report(call.Pos(), "time.%s reads the wall clock; simulation code must use virtual time (sim.Now)", name)
	case globalRand:
		u.Report(call.Pos(), "global math/rand.%s is shared mutable state; use a *rand.Rand seeded via internal/seedmix", name)
	}
}

// selectKind classifies a select by whether goroutine scheduling decides
// its outcome.
type selectKind int

const (
	selectPlain  selectKind = iota // one case, no default: the plain channel operation
	selectRandom                   // several communications: a ready one is picked at random
	selectPoll                     // default beside a communication: a readiness poll
)

// classifySelect reports sel's kind and its number of communication cases.
func classifySelect(sel *ast.SelectStmt) (selectKind, int) {
	comms, def := 0, false
	for _, clause := range sel.Body.List {
		if c, ok := clause.(*ast.CommClause); ok {
			if c.Comm == nil {
				def = true
			} else {
				comms++
			}
		}
	}
	switch {
	case comms > 1:
		return selectRandom, comms
	case def && comms > 0:
		return selectPoll, comms
	}
	return selectPlain, comms
}

// checkSelect flags selects whose outcome depends on goroutine scheduling: a
// choice between several ready communications is made at random, and a
// default clause makes the statement a readiness poll. Only a single-case,
// no-default select — sugar for the plain channel operation — is silent.
func checkSelect(u *Unit, sel *ast.SelectStmt) {
	switch kind, comms := classifySelect(sel); kind {
	case selectRandom:
		u.Report(sel.Pos(), "select chooses among %d ready communications at random; "+
			"cross-goroutine order can reach the result — use the shard coordinator's deterministic merge, "+
			"or waive with //hslint:allow nodeterm -- why", comms)
	case selectPoll:
		u.Report(sel.Pos(), "select with default polls channel readiness; the answer depends on "+
			"which goroutine ran first — use the shard coordinator's deterministic merge, "+
			"or waive with //hslint:allow nodeterm -- why")
	}
}

// checkMapRange flags writes that let map-iteration order escape the loop,
// and calls in its body that can reach a kernel-visible operation: those
// take seqs in iteration order, so the event schedule depends on it.
func checkMapRange(u *Unit, pkg *Package, rng *ast.RangeStmt) {
	report := func(at ast.Node, what string) {
		// Position the finding on the range line so one //hslint:ordered
		// waiver there covers the whole loop, as DESIGN.md documents.
		line := u.Fset.Position(at.Pos()).Line
		u.Report(rng.Pos(), "map range: %s (line %d); iteration order can reach the result — "+
			"fix, or waive the range with //hslint:ordered -- why", what, line)
	}
	mapRangeEscapes(pkg, rng, report)
	if !isMapRange(pkg, rng) {
		return
	}
	g := u.Graph()
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if f := StaticCallee(pkg.Info, n); f != nil && g.KernelVisible(f) {
				report(n, fmt.Sprintf("calls %s, which is kernel-visible (%s: %s)",
					shortFuncName(f), g.KernelOpClass(f), ChainString(g.KernelChain(f))))
			}
		case *ast.FuncLit:
			return false // a closure defined here may run later, out of loop context
		}
		return true
	})
}

// isMapRange reports whether rng ranges over a map.
func isMapRange(pkg *Package, rng *ast.RangeStmt) bool {
	t := typeOf(pkg.Info, rng.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// mapRangeEscapes calls report for every write inside a range-over-map that
// lets iteration order escape the loop. Shared by nodeterm (direct findings
// in deterministic packages) and detreach (sinks in reachable helpers).
func mapRangeEscapes(pkg *Package, rng *ast.RangeStmt, reportEscape func(at ast.Node, what string)) {
	if !isMapRange(pkg, rng) {
		return
	}
	lo, hi := rng.Pos(), rng.End()
	outer := func(e ast.Expr) types.Object {
		id := rootIdent(e)
		if id == nil || id.Name == "_" {
			return nil
		}
		obj := objectOf(pkg.Info, id)
		if obj == nil || declaredWithin(obj, lo, hi) {
			return nil
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return nil
		}
		return obj
	}
	report := func(at ast.Node, format string, args ...any) {
		reportEscape(at, fmt.Sprintf(format, args...))
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				obj := outer(lhs)
				if obj == nil {
					continue
				}
				if idx, ok := lhs.(*ast.IndexExpr); ok && n.Tok == token.ASSIGN {
					if mt := typeOf(pkg.Info, idx.X); mt != nil {
						if _, isMap := mt.Underlying().(*types.Map); isMap {
							continue // dst[k] = v: one value per key, order-insensitive
						}
					}
				}
				if n.Tok == token.ASSIGN {
					report(n, "writes %s, declared outside the loop", obj.Name())
				} else {
					report(n, "accumulates into %s (%s), declared outside the loop", obj.Name(), n.Tok)
				}
			}
		case *ast.IncDecStmt:
			if obj := outer(n.X); obj != nil {
				report(n, "accumulates into %s (%s), declared outside the loop", obj.Name(), n.Tok)
			}
		case *ast.SendStmt:
			if obj := outer(n.Chan); obj != nil {
				report(n, "sends on %s, declared outside the loop", obj.Name())
			}
		case *ast.ReturnStmt:
			if len(n.Results) > 0 {
				report(n, "returns a value from inside the loop")
			}
		case *ast.FuncLit:
			return false // a closure defined here may run later, out of loop context
		}
		return true
	})
}
