package plan

import (
	"errors"
	"fmt"
	"slices"

	"hybridship/internal/catalog"
)

// Binding maps plan nodes to the physical sites where they will execute.
type Binding map[*Node]catalog.SiteID

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
	if err != nil {
		return nil, err
	}
	b := make(Binding, len(sites))
	for i, n := range bd.nodes {
		b[n] = sites[i]
	}
	return b, nil
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
// search loop binds candidate after candidate without allocating. It
// numbers the nodes in pre-order (the order of Walk) and works on those
// positions alone: one walk records each node's parent and right child,
// and every site lookup after it is a slice index.
type Binder struct {
	nodes  []*Node
	parent []int // pre-order position of each node's parent; -1 for the root
	right  []int // position of each node's right child; -1 if none
	sites  []catalog.SiteID
	state  []bindState
	chain  []int
	fail   bindFailure // why the last Bind returned ErrUnbindable
}

// bindFailure records an ErrUnbindable result: what went wrong, at which
// pre-order position, and the one number its message quotes.
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

// bindState tracks one position through the resolution of annotations.
type bindState uint8

const (
	stateOpen    bindState = iota // not yet resolved
	stateBound                    // sites holds its site
	stateOnChain                  // on the reference chain being followed
	stateCycle                    // its references never reach an anchor
)

// Bind is the reusable-buffer form of the package-level Bind. It returns
// the site of every node in pre-order; the slice aliases the Binder's
// storage and is valid only until the next Bind call. A structurally
// unsound plan gets CheckStructure's error; a plan whose annotations cannot
// be bound gets ErrUnbindable, which Err then describes.
func (bd *Binder) Bind(root *Node, cat *catalog.Catalog, submitSite catalog.SiteID) ([]catalog.SiteID, error) {
	bd.fail = bindFailure{}
	if err := CheckStructure(root); err != nil {
		return nil, err
	}
	bd.nodes, bd.parent, bd.right = bd.nodes[:0], bd.parent[:0], bd.right[:0]
	bd.index(root, -1)
	n := len(bd.nodes)
	bd.sites = slices.Grow(bd.sites[:0], n)[:n]
	bd.state = slices.Grow(bd.state[:0], n)[:n]
	clear(bd.state)

	// Pass 1: anchors. The display and client scans run at the submitting
	// site; a primary-annotated scan runs where the copy it names lives.
	// The first scan in pre-order that cannot be placed is the error.
	badScan := -1
	for i, nd := range bd.nodes {
		switch nd.Kind {
		case KindDisplay:
			bd.bind(i, submitSite)
		case KindScan:
			switch nd.Ann {
			case AnnClient:
				bd.bind(i, submitSite)
			case AnnPrimary:
				rel, ok := cat.Lookup(nd.RelID, nd.Table)
				if ok && nd.Copy < rel.NumCopies() {
					// Copy 0 is the primary at Home; higher indices bind the
					// scan to a secondary replica of the relation.
					bd.bind(i, rel.CopySite(nd.Copy))
				} else if badScan < 0 {
					badScan = i
				}
			default:
				if badScan < 0 {
					badScan = i
				}
			}
		}
	}
	if badScan >= 0 {
		nd := bd.nodes[badScan]
		rel, ok := cat.Lookup(nd.RelID, nd.Table)
		switch {
		case !ok:
			return bd.failed(failUnknownRel, badScan, 0)
		case nd.Ann == AnnPrimary && nd.Copy >= rel.NumCopies():
			return bd.failed(failCopy, badScan, rel.NumCopies())
		}
		return bd.failed(failScanAnn, badScan, 0)
	}
	for i := range bd.nodes {
		if bd.state[i] == stateOpen && bd.ref(i) == refInvalid {
			return bd.failed(failAnn, i, 0)
		}
	}

	// Pass 2: every other operator runs where the node its annotation names
	// runs. Follow each reference chain to an anchor, or to a cycle.
	cycle := 0
	for i := range bd.nodes {
		if bd.state[i] == stateOpen {
			cycle += bd.follow(i)
		}
	}
	if cycle > 0 {
		return bd.failed(failCycle, 0, cycle)
	}
	return bd.sites, nil
}

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
	nd := bd.nodes[f.pos]
	switch f.kind {
	case failUnknownRel:
		return fmt.Errorf("plan: scan of unknown relation %q", nd.Table)
	case failCopy:
		return fmt.Errorf("plan: scan of %q names copy %d, but the relation has %d", nd.Table, nd.Copy, f.n)
	case failScanAnn:
		return fmt.Errorf("plan: scan of %q has invalid annotation %v", nd.Table, nd.Ann)
	case failAnn:
		return fmt.Errorf("plan: %v has invalid annotation %v", nd.Kind, nd.Ann)
	}
	return fmt.Errorf("plan: ill-formed: %d operator(s) form an annotation cycle", f.n)
}

// index appends n's subtree in pre-order and returns n's position.
func (bd *Binder) index(n *Node, parent int) int {
	i := len(bd.nodes)
	bd.nodes = append(bd.nodes, n)
	bd.parent = append(bd.parent, parent)
	bd.right = append(bd.right, -1)
	if n.Left != nil {
		bd.index(n.Left, i)
	}
	if n.Right != nil {
		bd.right[i] = bd.index(n.Right, i)
	}
	return i
}

func (bd *Binder) bind(i int, s catalog.SiteID) {
	bd.sites[i], bd.state[i] = s, stateBound
}

// refInvalid is ref's answer for an annotation the node's kind cannot carry.
const refInvalid = -2

// ref returns the position whose site an unanchored node takes (§2.2.3):
// -1 for a consumer without a parent.
func (bd *Binder) ref(i int) int {
	n := bd.nodes[i]
	switch {
	case n.Kind == KindJoin && n.Ann == AnnInner:
		return i + 1 // the left child
	case n.Kind == KindJoin && n.Ann == AnnOuter:
		return bd.right[i]
	case (n.Kind == KindSelect || n.Kind == KindAgg) && n.Ann == AnnProducer:
		return i + 1
	case (n.Kind == KindJoin || n.Kind == KindSelect || n.Kind == KindAgg) && n.Ann == AnnConsumer:
		return bd.parent[i]
	}
	return refInvalid
}

// follow resolves the open position i by walking its reference chain. The
// chain ends at a bound node, whose site every node on it takes, or at a
// node already known to be in (or to lead into) a cycle, or back on
// itself; then every node on it is part of the cycle. follow returns how
// many nodes it found unresolvable.
func (bd *Binder) follow(i int) int {
	chain := bd.chain[:0]
	j := i
	for j >= 0 && bd.state[j] == stateOpen {
		bd.state[j] = stateOnChain
		chain = append(chain, j)
		j = bd.ref(j)
	}
	bd.chain = chain
	if j >= 0 && bd.state[j] == stateBound {
		for _, k := range chain {
			bd.bind(k, bd.sites[j])
		}
		return 0
	}
	for _, k := range chain {
		bd.state[k] = stateCycle
	}
	return len(chain)
}

// WellFormed reports whether the plan's annotations can be bound to sites.
func WellFormed(root *Node, cat *catalog.Catalog, submitSite catalog.SiteID) bool {
	var bd Binder
	_, err := bd.Bind(root, cat, submitSite)
	return err == nil
}
