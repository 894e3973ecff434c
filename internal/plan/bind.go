package plan

import (
	"errors"
	"fmt"
	"slices"

	"hybridship/internal/catalog"
)

// Binding is the physical site of every node of a plan, indexed by node ID:
// node i is the i-th node in pre-order (the order of Walk, and of a fresh
// Flat.Reset).
type Binding []catalog.SiteID

// Bind resolves the logical annotations of a plan to physical sites, given a
// catalog (for primary-copy locations) and the site submitting the query
// (§2.1: "At runtime, the logical annotations are bound to actual sites").
//
// The display and scan operators are resolved first; other operators resolve
// by following their annotations. A plan whose annotations form a cycle —
// e.g. a consumer whose child is annotated producer — cannot be resolved and
// is rejected as ill-formed (§2.2.3).
func Bind(root *Node, cat *catalog.Catalog, submitSite catalog.SiteID) (Binding, error) {
	var bd Binder
	sites, err := bd.Bind(root, cat, submitSite)
	if err == ErrUnbindable {
		return nil, bd.Err()
	}
	return sites, err
}

// ErrUnbindable is what Binder.Bind returns for a structurally sound plan
// whose annotations cannot be bound to sites: a scan of a relation the
// catalog lacks, a copy index beyond the relation's replicas, an annotation
// the node's kind cannot carry, or an annotation cycle (§2.2.3). It is one
// fixed value, so a search that rejects ill-formed candidates by the
// thousand builds no error for them; Binder.Err describes the failure, and
// the package-level Bind returns that description.
var ErrUnbindable = errors.New("plan: annotations cannot be bound to sites")

// Binder resolves plans repeatedly while reusing its scratch slices, so a
// search loop binds candidate after candidate without allocating. It works
// on a Flat plan: every site lookup is a slice index by node ID.
//
// It keeps every node's resolution from one bind to the next, so Rebind
// redoes only what an edit of a few rows changed (see Rebind).
type Binder struct {
	own    Flat  // Bind's flattening of the tree it was given
	flat   *Flat // the plan last bound, for Err and Rebind
	gen    uint64
	cat    *catalog.Catalog
	submit catalog.SiteID

	// By node ID: the site and state of the last bind, the node whose
	// site the row takes (see ref), and the bind that last resolved it.
	sites []catalog.SiteID
	state []bindState
	refs  []int32
	pass  []uint32
	now   uint32 // this bind's number in pass
	whole bool   // the bind resolves every node: record no changes

	count [stateOpen + 1]int // nodes in each state, over the whole plan
	fail  bindFailure        // why the last Bind returned ErrUnbindable

	path    []int32 // the chain being followed
	queue   []int32 // resolved nodes whose referrers are to be checked
	changed []int32 // see Changed
	ids     []int32 // a whole bind's refs, changed (every ID) and path
}

// resolution is one node's outcome of a bind.
type resolution struct {
	site  catalog.SiteID
	state bindState
}

// bindFailure records an ErrUnbindable result: what went wrong, at which
// node (by ID, the pre-order position of a fresh flattening), and the one
// number its message quotes.
type bindFailure struct {
	kind failKind
	pos  int
	n    int // failCopy: the relation's copy count; failCycle: nodes on cycles
}

type failKind uint8

const (
	failNone       failKind = iota
	failUnknownRel          // a scan of a relation the catalog lacks
	failCopy                // a primary scan naming a copy beyond the replicas
	failScanAnn             // a scan annotated neither client nor primary
	failAnn                 // another operator with an annotation its kind cannot carry
	failCycle               // operators whose annotations form a cycle
)

// bindState is how a node resolved.
type bindState uint8

const (
	stateBound   bindState = iota // sites holds its site
	stateCycle                    // its references never reach an anchor
	stateBadScan                  // a scan that cannot be placed
	stateBadAnn                   // an annotation its kind cannot carry
	stateOpen                     // not resolved yet: a plan bound whole starts so
)

// onPath marks, in pass, a node on the chain of references being followed.
const onPath = 1 << 31

// Bind is the reusable-buffer form of the package-level Bind. It flattens
// root and returns BindFlat's sites, which for a fresh flattening are in
// pre-order (the order of Walk). A structurally unsound plan gets
// CheckStructure's error.
func (bd *Binder) Bind(root *Node, cat *catalog.Catalog, submitSite catalog.SiteID) ([]catalog.SiteID, error) {
	bd.fail = bindFailure{}
	if err := bd.own.Reset(root, cat); err != nil {
		return nil, err
	}
	return bd.BindFlat(&bd.own, cat, submitSite)
}

// BindFlat resolves the annotations of the flat plan f, whose relation IDs
// must come from cat, and returns the site of every node by ID. The slice
// aliases the Binder's storage and is valid only until the next call. A
// plan whose annotations cannot be bound gets ErrUnbindable, which Err then
// describes. It is Rebind with every node dirty.
func (bd *Binder) BindFlat(f *Flat, cat *catalog.Catalog, submitSite catalog.SiteID) ([]catalog.SiteID, error) {
	bd.flat = nil
	return bd.Rebind(f, cat, submitSite, nil)
}

// Rebind is BindFlat for a plan that differs from the one this Binder last
// bound, the same Flat (same generation, catalog and submitting site), only
// in the rows of the nodes in dirty: their annotations, copies or links.
// Any other plan is bound whole. Changed then lists the nodes whose site or
// verdict moved.
//
// A node takes the site of the node its annotation names (§2.2.3): a
// consumer its parent's, an inner or outer join its left or right input's,
// a producer its input's. Following those references from any node goes up
// through consumers and then down through the others to an anchor (the
// display or a scan); a reference down to a consumer child comes straight
// back, a cycle. Rebind follows the chain of each dirty node to its end,
// which gives the node's site. A node that is not dirty refers to the same
// node as before, so its site can move only if that node's did: the
// change travels from node to referrer (a parent that refers down to it, or
// a consumer child) and stops at the first referrer it leaves unmoved.
func (bd *Binder) Rebind(f *Flat, cat *catalog.Catalog, submitSite catalog.SiteID, dirty []int32) ([]catalog.SiteID, error) {
	bd.fail = bindFailure{}
	nodes := f.Nodes
	n := len(nodes)
	full := bd.flat != f || bd.gen != f.Generation() || bd.cat != cat || bd.submit != submitSite || len(bd.state) != n
	bd.flat, bd.gen, bd.cat, bd.submit = f, f.Generation(), cat, submitSite
	if bd.now++; bd.now == onPath {
		full = true // the pass numbers wrapped, so stale stamps could look current
	}
	if full {
		bd.bindAll(f, cat, submitSite)
		return bd.verdict(f, cat)
	}
	// The dirty nodes' references first, and the ends of chains among
	// them; every other node that ends a chain resolves as it did.
	bd.changed, bd.queue = bd.changed[:0], bd.queue[:0]
	for _, i := range dirty {
		bd.redo(f, cat, submitSite, i)
	}
	for _, i := range dirty {
		if bd.pass[i] != bd.now {
			bd.follow(i)
		}
	}
	// Hand each moved node's outcome on to its referrers.
	refs, pass, now := bd.refs, bd.pass, bd.now
	for k := 0; k < len(bd.queue); k++ {
		x := bd.queue[k]
		out := resolution{bd.sites[x], bd.state[x]}
		if out.state != stateBound {
			out.state = stateCycle
		}
		nd := &nodes[x]
		if j := nd.Parent; j >= 0 && refs[j] == x && pass[j] != now {
			bd.settle(j, out)
		}
		if j := nd.Left; j >= 0 && refs[j] == x && pass[j] != now {
			bd.settle(j, out)
		}
		if j := nd.Right; j >= 0 && refs[j] == x && pass[j] != now {
			bd.settle(j, out)
		}
	}
	return bd.verdict(f, cat)
}

// bindAll resolves every node of f afresh, and lists them all as changed.
func (bd *Binder) bindAll(f *Flat, cat *catalog.Catalog, submitSite catalog.SiteID) {
	n := len(f.Nodes)
	bd.sites = slices.Grow(bd.sites[:0], n)[:n]
	bd.state = slices.Grow(bd.state[:0], n)[:n]
	bd.pass = slices.Grow(bd.pass[:0], n)[:n]
	ids := slices.Grow(bd.ids[:0], 3*n)[:3*n]
	bd.ids, bd.refs, bd.path = ids, ids[:n], ids[2*n:2*n:3*n]
	all := ids[n : 2*n : 2*n]
	clear(bd.pass)
	bd.now, bd.count, bd.whole = 1, [stateOpen + 1]int{}, true
	for i := range all {
		all[i], bd.state[i] = int32(i), stateOpen
	}
	for _, i := range all {
		bd.redo(f, cat, submitSite, i)
	}
	for _, i := range all {
		if bd.pass[i] != bd.now {
			bd.follow(i)
		}
	}
	bd.changed, bd.whole = all, false
}

// verdict is the outcome of a bind that has resolved every node.
func (bd *Binder) verdict(f *Flat, cat *catalog.Catalog) ([]catalog.SiteID, error) {
	nodes := f.Nodes

	switch {
	case bd.count[stateBadScan] > 0:
		// The scan with the lowest ID (pre-order, for a fresh flattening)
		// that cannot be placed is the error.
		i := slices.Index(bd.state, stateBadScan)
		nd := &nodes[i]
		rel := cat.ByID(nd.Rel)
		switch {
		case rel == nil:
			return bd.failed(failUnknownRel, i, 0)
		case nd.Ann == AnnPrimary && nd.Copy >= rel.NumCopies():
			return bd.failed(failCopy, i, rel.NumCopies())
		}
		return bd.failed(failScanAnn, i, 0)
	case bd.count[stateBadAnn] > 0:
		// The lowest ID among annotations their kinds cannot carry is the
		// error, whatever cycles there are.
		return bd.failed(failAnn, slices.Index(bd.state, stateBadAnn), 0)
	case bd.count[stateCycle] > 0:
		return bd.failed(failCycle, 0, bd.count[stateCycle])
	}
	return bd.sites, nil
}

// redo takes the dirty node i's reference from its row and, if it ends a
// chain (an anchor, or a node that takes no other node's site), resolves
// it.
func (bd *Binder) redo(f *Flat, cat *catalog.Catalog, submitSite catalog.SiteID, i int32) {
	t := ref(&f.Nodes[i])
	bd.refs[i] = t
	switch t {
	case refAnchor:
		bd.settle(i, anchor(&f.Nodes[i], cat, submitSite))
	case refBad:
		bd.settle(i, resolution{state: stateBadAnn})
	case refNone:
		bd.settle(i, resolution{state: stateCycle})
	}
}

// follow resolves node i by following its references to the end of the
// chain: a node this bind has resolved, a node that ends a chain, or a
// node already on the chain (a cycle). Every node on the chain takes the
// outcome; a chain into a node that cannot be bound is unbound too, and
// counts as a cycle.
func (bd *Binder) follow(i int32) {
	refs, pass, now := bd.refs, bd.pass, bd.now
	path := bd.path[:0]
	for pass[i] != now && pass[i] != now|onPath && refs[i] >= 0 {
		pass[i] = now | onPath
		path = append(path, i)
		i = refs[i]
	}
	out := resolution{state: stateCycle}
	if pass[i] != now|onPath && bd.state[i] == stateBound {
		// Resolved in this bind, or an end of a chain that is not dirty and
		// so resolves as it did.
		out = resolution{bd.sites[i], stateBound}
	}
	if pass[i] != now|onPath {
		pass[i] = now
	}
	for _, j := range path {
		bd.settle(j, out)
	}
	bd.path = path
}

// settle gives node i the outcome out in this bind, and records a change.
func (bd *Binder) settle(i int32, out resolution) {
	bd.pass[i] = bd.now
	if was := (resolution{bd.sites[i], bd.state[i]}); was != out {
		bd.sites[i], bd.state[i] = out.site, out.state
		bd.count[was.state]--
		bd.count[out.state]++
		if !bd.whole {
			bd.changed = append(bd.changed, i)
			bd.queue = append(bd.queue, i)
		}
	}
}

// anchor resolves the display or scan nd. The display and client scans run
// at the submitting site; a primary-annotated scan runs where the copy it
// names lives.
func anchor(nd *FlatNode, cat *catalog.Catalog, submitSite catalog.SiteID) resolution {
	if nd.Kind == KindDisplay || nd.Ann == AnnClient {
		return resolution{submitSite, stateBound}
	}
	if nd.Ann == AnnPrimary {
		// Copy 0 is the primary at Home; higher indices bind the scan to
		// a secondary replica of the relation.
		if rel := cat.ByID(nd.Rel); rel != nil && nd.Copy < rel.NumCopies() {
			return resolution{rel.CopySite(nd.Copy), stateBound}
		}
	}
	return resolution{state: stateBadScan}
}

// What ref returns for a node that takes no other node's site.
const (
	refAnchor = -1 // the display or a scan
	refNone   = -2 // a consumer without a parent: a cycle
	refBad    = -3 // an annotation the node's kind cannot carry
)

// ref is the node whose site nd takes: its parent for a consumer, its left
// or right input for an inner or outer join, its input for a producer; or
// one of refAnchor, refNone and refBad.
func ref(nd *FlatNode) int32 {
	if nd.Kind == KindDisplay || nd.Kind == KindScan {
		return refAnchor
	}
	by := uint8(linkBad)
	if uint(nd.Kind) < uint(len(refLinks)) && uint(nd.Ann) < uint(len(refLinks[0])) {
		by = refLinks[nd.Kind][nd.Ann]
	}
	if to := [...]int32{refBad, nd.Left, nd.Right, nd.Parent}[by]; to != -1 {
		return to
	}
	return refNone
}

// The link a node's annotation follows, by kind and annotation (Table 1's
// union over the policies); linkBad for an annotation the kind cannot
// carry.
const (
	linkBad = iota
	linkLeft
	linkRight
	linkParent
)

var refLinks = [...][AnnPrimary + 1]uint8{
	KindJoin:   {AnnInner: linkLeft, AnnOuter: linkRight, AnnConsumer: linkParent},
	KindSelect: {AnnProducer: linkLeft, AnnConsumer: linkParent},
	KindAgg:    {AnnProducer: linkLeft, AnnConsumer: linkParent},
}

// Changed lists the nodes whose site, or whose being bound at all, the last
// bind changed (every node after a bind of a whole plan). It aliases the
// Binder's storage and is valid only until the next call.
func (bd *Binder) Changed() []int32 { return bd.changed }

// failed records why the plan cannot be bound and returns ErrUnbindable.
func (bd *Binder) failed(kind failKind, pos, n int) ([]catalog.SiteID, error) {
	bd.fail = bindFailure{kind: kind, pos: pos, n: n}
	return nil, ErrUnbindable
}

// Err describes why the last Bind returned ErrUnbindable, in the words the
// package-level Bind reports; it is nil after any other outcome. Like the
// sites Bind returns, it refers to the last bound plan, so call it before
// binding the next one.
func (bd *Binder) Err() error {
	f := bd.fail
	if f.kind == failNone {
		return nil
	}
	nd, table := &bd.flat.Nodes[f.pos], bd.flat.Src[f.pos].Table
	switch f.kind {
	case failUnknownRel:
		return fmt.Errorf("plan: scan of unknown relation %q", table)
	case failCopy:
		return fmt.Errorf("plan: scan of %q names copy %d, but the relation has %d", table, nd.Copy, f.n)
	case failScanAnn:
		return fmt.Errorf("plan: scan of %q has invalid annotation %v", table, nd.Ann)
	case failAnn:
		return fmt.Errorf("plan: %v has invalid annotation %v", nd.Kind, nd.Ann)
	}
	return fmt.Errorf("plan: ill-formed: %d operator(s) form an annotation cycle", f.n)
}

// WellFormed reports whether the plan's annotations can be bound to sites.
func WellFormed(root *Node, cat *catalog.Catalog, submitSite catalog.SiteID) bool {
	var bd Binder
	_, err := bd.Bind(root, cat, submitSite)
	return err == nil
}
