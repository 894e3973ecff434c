package analysis

import (
	"go/ast"
	"go/types"
)

// Parksafe guards hold hygiene under interrupts. Every simulation is
// interruptible, so the Interrupted panic sentinel can unwind the stack from
// *any* park point — Hold, a Buffer Get/Put, a Resource queue. A manually
// acquired Resource hold that is released by a plain statement after the
// park leaks when the unwind skips it, and a leaked hold deadlocks every
// later process that queues on the resource, silently corrupting the event
// schedule the determinism contract replays.
//
// The rules, per function of every package:
//
//  1. Every call to sim's Resource.Acquire must be paired with a
//     `defer r.Release(p)` on the same receiver expression in the same
//     function — defer is the only construct Go guarantees to run during a
//     panic unwind. A Release reached only by straight-line code (or no
//     Release at all) is flagged at the Acquire.
//  2. A deferred Release lexically inside a loop is flagged too: defers run
//     at function return, not iteration end, so each iteration's hold
//     outlives its loop body and the holds pile up until return.
//
// Resource.Use / UseRun — acquire, hold, release inside the kernel — are
// the preferred, always-safe pattern and are not flagged. The pairing is
// purely lexical (same rendered receiver expression, same function);
// holds handed across function boundaries need a waiver naming the
// transfer: `//hslint:allow parksafe -- reason`.
var Parksafe = &Analyzer{
	Name: "parksafe",
	Doc:  "Resource.Acquire without a deferred Release",
	Run:  runParksafe,
}

func runParksafe(u *Unit) {
	for _, pkg := range u.Packages {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				checkParksafe(u, pkg, decl)
			}
		}
	}
}

// resourceMethod matches a call to sim's Resource.Acquire or Resource.Release,
// returning the canonical receiver expression.
func resourceMethod(u *Unit, pkg *Package, call *ast.CallExpr) (recv, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	f, isFn := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || f.Pkg() == nil || f.Pkg().Path() != u.Config.SimPkg {
		return "", "", false
	}
	if f.Name() != "Acquire" && f.Name() != "Release" {
		return "", "", false
	}
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	if n, isNamed := t.(*types.Named); !isNamed || n.Obj().Name() != "Resource" {
		return "", "", false
	}
	return types.ExprString(sel.X), f.Name(), true
}

func checkParksafe(u *Unit, pkg *Package, decl *ast.FuncDecl) {
	type acquire struct {
		pos  ast.Node
		recv string
	}
	var acquires []acquire
	deferred := make(map[string]bool) // recv → has a defer Release
	released := make(map[string]bool) // recv → has any Release

	// loopDepth tracks lexical loop nesting so deferred Releases inside a
	// loop body can be flagged (rule 2).
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil || m == n {
				return true
			}
			switch m := m.(type) {
			case *ast.ForStmt:
				if m.Init != nil {
					walk(m.Init, inLoop)
				}
				walk(m.Body, true)
				return false
			case *ast.RangeStmt:
				walk(m.Body, true)
				return false
			case *ast.DeferStmt:
				if recv, method, ok := resourceMethod(u, pkg, m.Call); ok && method == "Release" {
					deferred[recv] = true
					released[recv] = true
					if inLoop {
						u.Report(m.Pos(), "deferred %s.Release inside a loop runs at function return, not iteration end; each iteration's hold outlives its body — restructure with Resource.Use or hoist the acquire out of the loop", recv)
					}
				}
				return true
			case *ast.CallExpr:
				if recv, method, ok := resourceMethod(u, pkg, m); ok {
					switch method {
					case "Acquire":
						acquires = append(acquires, acquire{m, recv})
					case "Release":
						released[recv] = true
					}
				}
				return true
			}
			return true
		})
	}
	walk(decl.Body, false)

	for _, a := range acquires {
		if deferred[a.recv] {
			continue
		}
		if released[a.recv] {
			u.Report(a.pos.Pos(), "%s.Acquire pairs with a non-deferred Release; an Interrupted panic at a park point between them leaks the hold — use `defer %s.Release(p)` or Resource.Use", a.recv, a.recv)
		} else {
			u.Report(a.pos.Pos(), "%s.Acquire has no matching deferred Release in this function; an Interrupted panic unwinding past this point leaks the hold — use `defer %s.Release(p)` or Resource.Use, or waive with the hold-transfer reason", a.recv, a.recv)
		}
	}
}
