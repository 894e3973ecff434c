package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Chargeflow proves the charge-accumulator contract of the execution engine
// (batch.go): a chargeAcc's pending parts must be flushed before every
// kernel-visible operation, or the coalesced charges land at a different
// point in the event schedule than charging them one by one would, and the
// engine's calibration breaks. Kernel-visible means reaching a sim kernel
// primitive or one of Config.SharedStateFuncs (state other processes read
// without a kernel event, like a site's temp-region allocator). Both
// violations seen so far broke this contract: an unflushed consumer-side
// accumulator at the producer-daemon spawn in the network pair's open, and
// a spilling join sealing a partition page — taking a temp-region chunk —
// before its pending charges had elapsed.
//
// The pass runs an intraprocedural dataflow over every function in ExecPkg
// that can see an accumulator (receiver field, parameter, or local), with a
// two-point lattice per accumulator: definitely-flushed, or possibly-dirty.
// flush() moves to flushed, add() to dirty, branches join pessimistically,
// loops run to a fixpoint. At every call that the call-graph engine proves
// kernel-visible, every possibly-dirty accumulator owned by the current
// process context is reported.
//
// Process contexts: a func-literal whose first parameter is *sim.Proc is a
// process body — it runs on its own simulated process and owns its own
// accumulator (the producer daemon in vnetPair.vopen). An accumulator is
// owned by the contexts where its add/flush calls appear; an accumulator
// never touched in the function belongs to the function's own (root)
// context, which is exactly what convicts the pre-fix vopen shape: the
// consumer-side accumulator, unmentioned in the function, is still the
// spawning process's obligation at the SpawnDaemonLazy call.
//
// Soundness limits (see DESIGN.md §13): calls whose callee can itself see an
// accumulator — an acc parameter, a receiver or parameter struct carrying an
// acc field, or an interface implemented by such a struct (viter) — are
// "acc-aware" and trusted to uphold the contract internally; this pass
// checks them when it analyzes them, not at their call sites. Calls through
// plain function values it cannot resolve are assumed not kernel-visible.
// defer bodies are not flow-ordered (they run at unwind time, where charge
// placement is already unspecified).
var Chargeflow = &Analyzer{
	Name: "chargeflow",
	Doc:  "possibly-unflushed charge accumulator reaching a kernel-visible operation",
	Run:  runChargeflow,
}

func runChargeflow(u *Unit) {
	cfg := u.Config
	if cfg.ExecPkg == "" || cfg.ChargeAccType == "" {
		return
	}
	var vec *Package
	for _, pkg := range u.Packages {
		if pkg.Path == cfg.ExecPkg {
			vec = pkg
			break
		}
	}
	if vec == nil {
		return
	}
	obj := vec.Types.Scope().Lookup(cfg.ChargeAccType)
	if obj == nil {
		return
	}
	accType, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}

	cf := &chargeflow{
		u:        u,
		g:        u.Graph(),
		pkg:      vec,
		accType:  accType,
		procType: lookupNamed(u, cfg.SimPkg, "Proc"),
		reported: make(map[token.Pos]map[string]bool),
	}
	cf.findCarriers()

	var decls []*ast.FuncDecl
	for _, file := range vec.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			if recv := cf.recvType(decl); recv != nil && recv == accType {
				continue // add/flush themselves are the mechanism, not clients
			}
			decls = append(decls, decl)
		}
	}
	// First pass: classify each carrier type's acc fields package-wide as
	// root-process obligations or exclusively daemon-owned (touched only
	// inside process-body literals, like the producer-side accumulator).
	cf.fieldOwners = make(map[string]*fieldOwner)
	for _, decl := range decls {
		cf.classifyFields(decl)
	}
	for _, decl := range decls {
		cf.checkFunc(decl)
	}
}

// fieldOwner is the package-wide ownership of one carrier-struct acc field.
type fieldOwner struct {
	root bool // some method touches it in its own (root) process
	proc bool // some method touches it inside a process-body literal
}

// classifyFields aggregates, for each receiver acc field ("vnetPair.pacc"),
// which process contexts across the whole package ever add/flush it. A
// method where the field is untouched then inherits the package-wide
// verdict: a field only ever handled by spawned process bodies is the
// daemon's obligation, not the method's root process's.
func (cf *chargeflow) classifyFields(decl *ast.FuncDecl) {
	recv := cf.recvType(decl)
	if recv == nil || !cf.carriers[recv] {
		return
	}
	if len(decl.Recv.List[0].Names) == 0 {
		return
	}
	recvName := decl.Recv.List[0].Names[0].Name
	ff := &funcFlow{
		cf:      cf,
		tracked: make(map[string]bool),
		owners:  make(map[string]map[*ast.FuncLit]bool),
		env:     make(map[types.Object][]*ast.FuncLit),
		litCtx:  make(map[*ast.FuncLit]*ast.FuncLit),
	}
	ff.assignContexts(decl)
	ff.collectOwners(decl)
	for key, ctxs := range ff.owners {
		field, ok := strings.CutPrefix(key, recvName+".")
		if !ok {
			continue
		}
		gk := recv.Obj().Name() + "." + field
		fo := cf.fieldOwners[gk]
		if fo == nil {
			fo = &fieldOwner{}
			cf.fieldOwners[gk] = fo
		}
		for ctx := range ctxs {
			if ctx == nil {
				fo.root = true
			} else {
				fo.proc = true
			}
		}
	}
}

func lookupNamed(u *Unit, pkgPath, name string) *types.Named {
	for _, p := range u.Packages {
		if p.Path != pkgPath {
			continue
		}
		if o := p.Types.Scope().Lookup(name); o != nil {
			if n, ok := o.Type().(*types.Named); ok {
				return n
			}
		}
	}
	return nil
}

type chargeflow struct {
	u        *Unit
	g        *CallGraph
	pkg      *Package
	accType  *types.Named
	procType *types.Named

	// carriers are the named struct types holding an accumulator field, and
	// carrierIfaces the named interfaces one of them implements (viter):
	// a call whose receiver or parameters involve either is acc-aware.
	carriers      map[*types.Named]bool
	carrierIfaces map[*types.Named]bool

	// fieldOwners is the package-wide ownership verdict per carrier acc
	// field ("vnetPair.pacc"), from the classifyFields pre-pass.
	fieldOwners map[string]*fieldOwner

	reported map[token.Pos]map[string]bool // call pos → acc keys already reported
}

// findCarriers scans ExecPkg's named types for structs with an accumulator
// field and interfaces those structs implement.
func (cf *chargeflow) findCarriers() {
	cf.carriers = make(map[*types.Named]bool)
	cf.carrierIfaces = make(map[*types.Named]bool)
	scope := cf.pkg.Types.Scope()
	var named []*types.Named
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok {
			named = append(named, n)
		}
	}
	for _, n := range named {
		st, ok := n.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if cf.isAcc(st.Field(i).Type()) {
				cf.carriers[n] = true
				break
			}
		}
	}
	for _, n := range named {
		iface, ok := n.Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for c := range cf.carriers {
			if types.Implements(types.NewPointer(c), iface) || types.Implements(c, iface) {
				cf.carrierIfaces[n] = true
				break
			}
		}
	}
}

// isAcc reports whether t is the accumulator type or a pointer to it.
func (cf *chargeflow) isAcc(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() == cf.accType.Obj()
}

func (cf *chargeflow) recvType(decl *ast.FuncDecl) *types.Named {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return nil
	}
	t := typeOf(cf.pkg.Info, decl.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isProcLit reports whether lit is a process body: its first parameter is
// *sim.Proc, so it runs on its own simulated process.
func (cf *chargeflow) isProcLit(lit *ast.FuncLit) bool {
	if cf.procType == nil {
		return false
	}
	sig, ok := typeOf(cf.pkg.Info, lit).(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	p, ok := sig.Params().At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj() == cf.procType.Obj()
}

// accState is the per-scope dataflow state: for each accumulator key,
// whether it is definitely flushed on every path reaching this point.
// A dead state follows return/break/continue.
type accState struct {
	clean map[string]bool
	dead  bool
}

func newAccState() *accState { return &accState{clean: make(map[string]bool)} }

func (s *accState) clone() *accState {
	c := newAccState()
	c.dead = s.dead
	for k, v := range s.clean {
		c.clean[k] = v
	}
	return c
}

// join merges two path states: an accumulator is clean only if clean on
// both live paths. nil means "no path flowed here" and joins like a dead
// state (an infinite loop with no breaks has a dead exit and a nil break
// collector).
func joinAcc(a, b *accState) *accState {
	if a == nil {
		a = &accState{clean: map[string]bool{}, dead: true}
	}
	if b == nil {
		b = &accState{clean: map[string]bool{}, dead: true}
	}
	if a.dead {
		return b.clone()
	}
	if b.dead {
		return a.clone()
	}
	out := newAccState()
	for k, v := range a.clean {
		out.clean[k] = v && b.clean[k]
	}
	for k := range b.clean {
		if _, ok := a.clean[k]; !ok {
			out.clean[k] = false
		}
	}
	return out
}

func eqAcc(a, b *accState) bool {
	if a.dead != b.dead {
		return false
	}
	if len(a.clean) != len(b.clean) {
		return false
	}
	for k, v := range a.clean {
		if b.clean[k] != v {
			return false
		}
	}
	return true
}

// flowScope is one flow-analyzed body: the function itself or one of its
// func-literals, tagged with the process context it runs in (nil = the
// function's own process).
type flowScope struct {
	body ast.Node     // *ast.BlockStmt
	ctx  *ast.FuncLit // process context; nil for the root process
}

// funcFlow is the per-function analysis state shared by all its scopes.
type funcFlow struct {
	cf       *chargeflow
	tracked  map[string]bool                  // acc keys visible to the function
	owners   map[string]map[*ast.FuncLit]bool // acc key → process contexts touching it
	fieldKey map[string]string                // "n.pacc" → "vnetPair.pacc" (package-wide key)
	env      map[types.Object][]*ast.FuncLit  // local func vars → candidate literals
	litCtx   map[*ast.FuncLit]*ast.FuncLit    // literal → its process context
	ctx      *ast.FuncLit                     // context of the scope being flowed
}

func (cf *chargeflow) checkFunc(decl *ast.FuncDecl) {
	ff := &funcFlow{
		cf:       cf,
		tracked:  make(map[string]bool),
		owners:   make(map[string]map[*ast.FuncLit]bool),
		fieldKey: make(map[string]string),
		env:      make(map[types.Object][]*ast.FuncLit),
		litCtx:   make(map[*ast.FuncLit]*ast.FuncLit),
	}
	ff.seedTracked(decl)
	if len(ff.tracked) == 0 && !ff.mentionsAcc(decl.Body) {
		return
	}
	ff.assignContexts(decl)
	ff.collectEnv(decl)
	ff.collectOwners(decl)

	scopes := []flowScope{{body: decl.Body, ctx: nil}}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			scopes = append(scopes, flowScope{body: lit.Body, ctx: ff.litCtx[lit]})
		}
		return true
	})
	for _, sc := range scopes {
		ff.ctx = sc.ctx
		st := newAccState()
		for k := range ff.tracked {
			st.clean[k] = false // pessimistic entry: charges may be pending
		}
		ff.block(sc.body.(*ast.BlockStmt).List, st)
	}
}

// seedTracked records the accumulator keys visible at entry: receiver and
// parameter fields of carrier structs ("n.acc"), and direct acc parameters.
func (ff *funcFlow) seedTracked(decl *ast.FuncDecl) {
	cf := ff.cf
	fields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			t := typeOf(cf.pkg.Info, f.Type)
			for _, name := range f.Names {
				if cf.isAcc(t) {
					ff.tracked[name.Name] = true
					continue
				}
				pt := t
				if p, ok := pt.(*types.Pointer); ok {
					pt = p.Elem()
				}
				if n, ok := pt.(*types.Named); ok && cf.carriers[n] {
					st := n.Underlying().(*types.Struct)
					for i := 0; i < st.NumFields(); i++ {
						if cf.isAcc(st.Field(i).Type()) {
							key := name.Name + "." + st.Field(i).Name()
							ff.tracked[key] = true
							ff.fieldKey[key] = n.Obj().Name() + "." + st.Field(i).Name()
						}
					}
				}
			}
		}
	}
	fields(decl.Recv)
	fields(decl.Type.Params)
}

// mentionsAcc reports whether any expression in body has the accumulator
// type — functions that cannot see one are skipped wholesale.
func (ff *funcFlow) mentionsAcc(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if e, ok := n.(ast.Expr); ok && ff.cf.isAcc(typeOf(ff.cf.pkg.Info, e)) {
			found = true
		}
		return true
	})
	return found
}

// assignContexts maps every func-literal to its process context: a literal
// with a *sim.Proc first parameter starts a new context, every other
// literal inherits its enclosing one.
func (ff *funcFlow) assignContexts(decl *ast.FuncDecl) {
	var walk func(n ast.Node, ctx *ast.FuncLit)
	walk = func(n ast.Node, ctx *ast.FuncLit) {
		ast.Inspect(n, func(m ast.Node) bool {
			lit, ok := m.(*ast.FuncLit)
			if !ok || m == n {
				return true
			}
			inner := ctx
			if ff.cf.isProcLit(lit) {
				inner = lit
			}
			ff.litCtx[lit] = inner
			walk(lit.Body, inner)
			return false
		})
	}
	walk(decl.Body, nil)
}

// collectEnv records which func-literals each local function variable can
// hold, so calls through those variables can be classified.
func (ff *funcFlow) collectEnv(decl *ast.FuncDecl) {
	info := ff.cf.pkg.Info
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := objectOf(info, id)
			if obj == nil {
				continue
			}
			switch rhs := as.Rhs[i].(type) {
			case *ast.FuncLit:
				ff.env[obj] = append(ff.env[obj], rhs)
			case *ast.Ident:
				if src := objectOf(info, rhs); src != nil {
					ff.env[obj] = append(ff.env[obj], ff.env[src]...)
				}
			}
		}
		return true
	})
}

// collectOwners records, for each accumulator key, the process contexts in
// which it is added-to or flushed. An accumulator owned by no context is the
// root process's obligation.
func (ff *funcFlow) collectOwners(decl *ast.FuncDecl) {
	var walk func(n ast.Node, ctx *ast.FuncLit)
	walk = func(n ast.Node, ctx *ast.FuncLit) {
		ast.Inspect(n, func(m ast.Node) bool {
			if lit, ok := m.(*ast.FuncLit); ok && m != n {
				walk(lit.Body, ff.litCtx[lit])
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, _, ok := ff.accMethod(call); ok {
				if ff.owners[key] == nil {
					ff.owners[key] = make(map[*ast.FuncLit]bool)
				}
				ff.owners[key][ctx] = true
			}
			return true
		})
	}
	walk(decl.Body, nil)
}

// accMethod matches a call to a method on the accumulator type, returning
// the receiver's canonical key ("n.acc") and the method name.
func (ff *funcFlow) accMethod(call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	f, isFn := ff.cf.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return "", "", false
	}
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || !ff.cf.isAcc(sig.Recv().Type()) {
		return "", "", false
	}
	return types.ExprString(sel.X), f.Name(), true
}

// checkedHere reports whether key is the current scope's obligation: the
// key is owned by this scope's process context; or it is untouched in this
// function, in which case it defaults to the root context's obligation —
// unless the package-wide classification says the field is exclusively
// daemon-owned (only ever touched inside process-body literals, like the
// producer-side accumulator read in the consumer's vnext).
func (ff *funcFlow) checkedHere(key string) bool {
	if owners := ff.owners[key]; len(owners) > 0 {
		return owners[ff.ctx]
	}
	if gk, ok := ff.fieldKey[key]; ok {
		if fo := ff.cf.fieldOwners[gk]; fo != nil && fo.proc && !fo.root {
			return false
		}
	}
	return ff.ctx == nil
}

// ---- the flow walk ----

// loopFrame collects the states flowing out of break/continue statements of
// the innermost loop.
type loopFrame struct {
	breaks    *accState
	continues *accState
}

var flowLoops []*loopFrame // stack; package-level to keep signatures small

func (ff *funcFlow) block(list []ast.Stmt, st *accState) *accState {
	for _, s := range list {
		st = ff.stmt(s, st)
	}
	return st
}

func (ff *funcFlow) stmt(s ast.Stmt, st *accState) *accState {
	if st.dead {
		return st
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return ff.block(s.List, st)
	case *ast.LabeledStmt:
		return ff.stmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st = ff.stmt(s.Init, st)
		}
		st = ff.exprCalls(s.Cond, st)
		thenOut := ff.stmt(s.Body, st.clone())
		elseOut := st
		if s.Else != nil {
			elseOut = ff.stmt(s.Else, st.clone())
		}
		return joinAcc(thenOut, elseOut)
	case *ast.ForStmt:
		if s.Init != nil {
			st = ff.stmt(s.Init, st)
		}
		return ff.loop(st, s.Cond != nil, func(in *accState) *accState {
			if s.Cond != nil {
				in = ff.exprCalls(s.Cond, in)
			}
			out := ff.stmt(s.Body, in)
			if s.Post != nil && !out.dead {
				out = ff.stmt(s.Post, out)
			}
			return out
		})
	case *ast.RangeStmt:
		st = ff.exprCalls(s.X, st)
		return ff.loop(st, true, func(in *accState) *accState {
			return ff.stmt(s.Body, in)
		})
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = ff.stmt(s.Init, st)
		}
		if s.Tag != nil {
			st = ff.exprCalls(s.Tag, st)
		}
		return ff.cases(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = ff.stmt(s.Init, st)
		}
		st = ff.nodeCalls(s.Assign, st)
		return ff.cases(s.Body, st)
	case *ast.SelectStmt:
		return ff.cases(s.Body, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			st = ff.exprCalls(r, st)
		}
		out := st.clone()
		out.dead = true
		return out
	case *ast.BranchStmt:
		if n := len(flowLoops); n > 0 {
			fr := flowLoops[n-1]
			switch s.Tok {
			case token.BREAK:
				fr.breaks = joinAcc(fr.breaks, st)
			case token.CONTINUE:
				fr.continues = joinAcc(fr.continues, st)
			}
		}
		out := st.clone()
		out.dead = true
		return out
	case *ast.DeferStmt:
		// Deferred calls run at unwind time; their charge placement is not
		// flow-ordered with the body, so they are not checked here.
		return st
	case *ast.GoStmt:
		return st
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			st = ff.exprCalls(r, st)
		}
		for i, lhs := range s.Lhs {
			key := types.ExprString(lhs)
			var rhs ast.Expr
			if len(s.Rhs) == len(s.Lhs) {
				rhs = s.Rhs[i]
			}
			ff.assignAcc(key, lhs, rhs, st)
		}
		return st
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					st = ff.exprCalls(v, st)
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
					}
					ff.assignAcc(name.Name, name, rhs, st)
				}
			}
		}
		return st
	default:
		return ff.nodeCalls(s, st)
	}
}

// assignAcc updates tracking when an assignment involves the accumulator
// type: a fresh &chargeAcc{} literal is clean, an alias copies its source's
// state, anything else is pessimistic.
func (ff *funcFlow) assignAcc(key string, lhs, rhs ast.Expr, st *accState) {
	if !ff.cf.isAcc(typeOf(ff.cf.pkg.Info, lhs)) {
		return
	}
	ff.tracked[key] = true
	switch r := rhs.(type) {
	case *ast.UnaryExpr:
		if r.Op == token.AND {
			if _, ok := r.X.(*ast.CompositeLit); ok {
				st.clean[key] = true // fresh accumulator: nothing pending
				return
			}
		}
	case *ast.CompositeLit:
		st.clean[key] = true
		return
	}
	if rhs != nil {
		if src, ok := st.clean[types.ExprString(rhs)]; ok {
			st.clean[key] = src
			return
		}
	}
	st.clean[key] = false
}

// cases joins the outcomes of a switch/select body's clauses with the
// fall-past-everything path.
func (ff *funcFlow) cases(body *ast.BlockStmt, st *accState) *accState {
	hasDefault := false
	var out *accState
	for _, c := range body.List {
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				st = ff.exprCalls(e, st)
			}
			if c.List == nil {
				hasDefault = true
			}
			list = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				st = ff.stmt(c.Comm, st.clone())
			}
			list = c.Body
		}
		out = joinAcc(out, ff.block(list, st.clone()))
	}
	if !hasDefault || out == nil {
		out = joinAcc(out, st)
	}
	return out
}

// loop runs body to a fixpoint over the two-point lattice. mayskip marks
// loops that can execute zero times, whose entry state joins the exit.
func (ff *funcFlow) loop(entry *accState, mayskip bool, body func(*accState) *accState) *accState {
	fr := &loopFrame{}
	flowLoops = append(flowLoops, fr)
	defer func() { flowLoops = flowLoops[:len(flowLoops)-1] }()

	in := entry.clone()
	for i := 0; i < 4; i++ {
		out := body(in.clone())
		next := joinAcc(in, joinAcc(out, fr.continues))
		if eqAcc(next, in) {
			break
		}
		in = next
	}
	var exit *accState
	if mayskip {
		exit = in.clone()
	} else {
		exit = &accState{clean: map[string]bool{}, dead: true}
	}
	return joinAcc(exit, fr.breaks)
}

// nodeCalls processes every call under n (skipping func-literal bodies) in
// source order.
func (ff *funcFlow) nodeCalls(n ast.Node, st *accState) *accState {
	if n == nil {
		return st
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false // a literal's body is its own flow scope
		}
		if call, ok := m.(*ast.CallExpr); ok {
			st = ff.applyCall(call, st)
		}
		return true
	})
	return st
}

func (ff *funcFlow) exprCalls(e ast.Expr, st *accState) *accState {
	return ff.nodeCalls(e, st)
}

// applyCall is the transfer function for one call expression.
func (ff *funcFlow) applyCall(call *ast.CallExpr, st *accState) *accState {
	cf := ff.cf

	// Accumulator methods are the state transitions themselves.
	if key, method, ok := ff.accMethod(call); ok {
		ff.tracked[key] = true
		switch method {
		case "flush":
			st.clean[key] = true
		default: // add, or any future mutator
			st.clean[key] = false
		}
		return st
	}

	callee := StaticCallee(cf.pkg.Info, call)
	if callee == nil {
		// A call through a local function variable: if any literal it can
		// hold touches an accumulator, it is acc-aware machinery (the send
		// closure); trust it and invalidate. Otherwise assume it is not
		// kernel-visible (documented limit).
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if obj := objectOf(cf.pkg.Info, id); obj != nil {
				for _, lit := range ff.env[obj] {
					if ff.mentionsAcc(lit.Body) {
						ff.invalidateAll(st)
						return st
					}
				}
			}
		}
		return st
	}

	if ff.accAware(callee) {
		// The callee can see an accumulator; it upholds the contract
		// internally and may add charges, so everything is pessimistic after.
		ff.invalidateAll(st)
		return st
	}

	if cf.g.KernelVisible(callee) {
		for key := range ff.tracked {
			if !ff.checkedHere(key) || st.clean[key] {
				continue
			}
			ff.report(call.Pos(), key, callee)
			// Only the first unflushed operation on a path is the bug;
			// treat the accumulator as handled to avoid cascades.
			st.clean[key] = true
		}
	}
	return st
}

func (ff *funcFlow) invalidateAll(st *accState) {
	for key := range ff.tracked {
		st.clean[key] = false
	}
}

// accAware reports whether f's signature can see an accumulator: a receiver
// or parameter that is an acc, a carrier struct, or a carrier interface.
func (ff *funcFlow) accAware(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return false
	}
	see := func(t types.Type) bool {
		if ff.cf.isAcc(t) {
			return true
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return ff.cf.carriers[n] || ff.cf.carrierIfaces[n]
		}
		return false
	}
	if sig.Recv() != nil && see(sig.Recv().Type()) {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if see(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// report emits one finding per (call position, accumulator), surviving loop
// fixpoint re-walks.
func (ff *funcFlow) report(pos token.Pos, key string, callee *types.Func) {
	cf := ff.cf
	if cf.reported[pos] == nil {
		cf.reported[pos] = make(map[string]bool)
	}
	if cf.reported[pos][key] {
		return
	}
	cf.reported[pos][key] = true
	g := cf.g
	ff.cf.u.Report(pos, "call to %s is kernel-visible (%s: %s) but accumulator %s may hold unflushed charges on this path; flush it first (batch.go contract: flush before every kernel-visible operation)",
		shortFuncName(callee), g.KernelOpClass(callee), ChainString(g.KernelChain(callee)), key)
}
