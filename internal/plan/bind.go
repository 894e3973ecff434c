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
type Binder struct {
	own   Flat  // Bind's flattening of the tree it was given
	flat  *Flat // the plan last bound, for Err
	sites []catalog.SiteID
	state []bindState
	fail  bindFailure // why the last Bind returned ErrUnbindable
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

// bindState tracks one node through the resolution of annotations.
type bindState uint8

const (
	stateBound bindState = iota // sites holds its site
	stateUp                     // a consumer, resolved from its parent in pass 2
	stateCycle                  // its references never reach an anchor
)

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
// must come from cat and whose Pre and Post must be current, and returns
// the site of every node by ID. The slice aliases the Binder's storage and
// is valid only until the next call. A plan whose annotations cannot be
// bound gets ErrUnbindable, which Err then describes.
//
// A node takes the site of the node its annotation names (§2.2.3): a
// consumer its parent's, an inner or outer join its left or right input's,
// a producer its input's. Following those references from any node goes up
// through consumers and then down through the others to an anchor (the
// display or a scan); a reference down to a consumer child comes straight
// back, a cycle. So one post-order pass resolves every node whose chain
// goes only down, and a pre-order pass then hands each consumer its
// parent's site.
func (bd *Binder) BindFlat(f *Flat, cat *catalog.Catalog, submitSite catalog.SiteID) ([]catalog.SiteID, error) {
	bd.fail = bindFailure{}
	bd.flat = f
	nodes := f.Nodes
	n := len(nodes)
	sites := slices.Grow(bd.sites[:0], n)[:n]
	state := slices.Grow(bd.state[:0], n)[:n]
	bd.sites, bd.state = sites, state

	// Pass 1, children first: anchors, and references down. The display
	// and client scans run at the submitting site; a primary-annotated
	// scan runs where the copy it names lives. The scan with the lowest ID
	// (pre-order, for a fresh flattening) that cannot be placed is the
	// error.
	badScan, invalid := -1, false
	for _, i := range f.Post {
		nd := &nodes[i]
		var down int32 = -1
		switch nd.Kind {
		case KindDisplay:
			sites[i], state[i] = submitSite, stateBound
			continue
		case KindScan:
			state[i] = stateBound
			switch nd.Ann {
			case AnnClient:
				sites[i] = submitSite
				continue
			case AnnPrimary:
				// Copy 0 is the primary at Home; higher indices bind the
				// scan to a secondary replica of the relation.
				if rel := cat.ByID(nd.Rel); rel != nil && nd.Copy < rel.NumCopies() {
					sites[i] = rel.CopySite(nd.Copy)
					continue
				}
			}
			if badScan < 0 || int(i) < badScan {
				badScan = int(i)
			}
			continue
		case KindJoin:
			switch nd.Ann {
			case AnnInner:
				down = nd.Left
			case AnnOuter:
				down = nd.Right
			}
		case KindSelect, KindAgg:
			if nd.Ann == AnnProducer {
				down = nd.Left
			}
		}
		switch {
		case down >= 0 && state[down] == stateBound:
			sites[i], state[i] = sites[down], stateBound
		case down >= 0:
			state[i] = stateCycle // into a cycle, or back up from a consumer
		case nd.Ann == AnnConsumer && (nd.Kind == KindJoin || nd.Kind == KindSelect || nd.Kind == KindAgg):
			state[i] = stateUp
		default:
			state[i], invalid = stateCycle, true
		}
	}
	if badScan >= 0 {
		nd := &nodes[badScan]
		rel := cat.ByID(nd.Rel)
		switch {
		case rel == nil:
			return bd.failed(failUnknownRel, badScan, 0)
		case nd.Ann == AnnPrimary && nd.Copy >= rel.NumCopies():
			return bd.failed(failCopy, badScan, rel.NumCopies())
		}
		return bd.failed(failScanAnn, badScan, 0)
	}
	if invalid {
		// The lowest ID among annotations their kinds cannot carry is the
		// error, whatever cycles there are.
		for i := range nodes {
			if k := nodes[i].Kind; k != KindDisplay && k != KindScan && !validAnn(&nodes[i]) {
				return bd.failed(failAnn, i, 0)
			}
		}
	}

	// Pass 2, parents first: each consumer takes its parent's site.
	cycle := 0
	for _, i := range f.Pre {
		switch state[i] {
		case stateUp:
			if p := nodes[i].Parent; p >= 0 && state[p] == stateBound {
				sites[i], state[i] = sites[p], stateBound
				continue
			}
			state[i] = stateCycle
			cycle++
		case stateCycle:
			cycle++
		}
	}
	if cycle > 0 {
		return bd.failed(failCycle, 0, cycle)
	}
	return sites, nil
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

// validAnn reports whether the join, select or aggregate n carries an
// annotation its kind can (Table 1's union over the policies).
func validAnn(n *FlatNode) bool {
	switch n.Kind {
	case KindJoin:
		return n.Ann == AnnInner || n.Ann == AnnOuter || n.Ann == AnnConsumer
	case KindSelect, KindAgg:
		return n.Ann == AnnProducer || n.Ann == AnnConsumer
	}
	return false
}

// WellFormed reports whether the plan's annotations can be bound to sites.
func WellFormed(root *Node, cat *catalog.Catalog, submitSite catalog.SiteID) bool {
	var bd Binder
	_, err := bd.Bind(root, cat, submitSite)
	return err == nil
}
