package opt

import (
	"slices"

	"hybridship/internal/catalog"
	"hybridship/internal/plan"
	"hybridship/internal/query"
)

// moveKind enumerates the plan transformations of §3.1.1.
type moveKind int

const (
	// Join ordering (moves 1-4 of the paper).
	mvAssocLeftToRight moveKind = iota // (A⋈B)⋈C → A⋈(B⋈C)
	mvExchangeLeft                     // (A⋈B)⋈C → B⋈(A⋈C)
	mvAssocRightToLeft                 // A⋈(B⋈C) → (A⋈B)⋈C
	mvExchangeRight                    // A⋈(B⋈C) → (A⋈C)⋈B
	mvCommute                          // A⋈B → B⋈A (IK90; optional)
	mvSwapAdjacent                     // (X⋈A)⋈B → (X⋈B)⋈A; left-deep mode only
	// Site selection (moves 5-7 of the paper).
	mvJoinAnn   // change a join's annotation
	mvSelectAnn // toggle a select between consumer and producer
	mvScanAnn   // toggle a scan between client and primary copy
	// Replica rebinding (beyond the paper; DESIGN.md §14).
	mvScanCopy // point a scan at another replica of its relation
)

// reshapes reports whether moves of kind k change the tree's shape.
func (k moveKind) reshapes() bool { return k < mvJoinAnn }

// move is one candidate transformation: a node (by its ID in the search's
// flat plan) plus a kind and, for annotation moves, a slot selecting the
// target among the policy's allowed annotations for that node, skipping the
// node's current one. Slot-based targets keep the move list a function of
// the tree's *shape* only (the number of allowed annotations depends on
// kind and policy, never on the current annotation), so the enumeration can
// be cached across annotation-only moves.
type move struct {
	node int32
	kind moveKind
	slot int
}

// relBits maps catalog relation IDs to the query's relation bits
// (Query.RelMask), so a scan's bit is a slice index.
type relBits []uint64 // the bit of the relation with catalog ID id is at id-1

// newRelBits sets bit i for Relations[i], as Query.RelMask does, without
// calling it: New runs before any search has validated the query, and
// RelMask panics on one too wide to validate.
func newRelBits(q *query.Query, cat *catalog.Catalog) relBits {
	if cat == nil {
		return nil
	}
	r := make(relBits, len(cat.Relations()))
	for i, name := range q.Relations {
		if id := cat.ID(name); id != 0 {
			r[id-1] = 1 << uint(i)
		}
	}
	return r
}

// of returns the query bit of the relation with catalog ID id, or 0.
func (r relBits) of(id catalog.RelID) uint64 {
	if i := int(id) - 1; uint(i) < uint(len(r)) {
		return r[i]
	}
	return 0
}

// subtreeMasks sets mask[i] to the relations scanned under node i of f,
// visiting f.Post so children precede their parents.
func subtreeMasks(f *plan.Flat, bits relBits, mask []uint64) []uint64 {
	mask = slices.Grow(mask[:0], len(f.Nodes))[:len(f.Nodes)]
	for _, i := range f.Post {
		nd := &f.Nodes[i]
		m := uint64(0)
		if nd.Kind == plan.KindScan {
			m = bits.of(nd.Rel)
		}
		if nd.Left >= 0 {
			m |= mask[nd.Left]
		}
		if nd.Right >= 0 {
			m |= mask[nd.Right]
		}
		mask[i] = m
	}
	return mask
}

// candidateMoves enumerates every legal move on the flat plan f under the
// policy: nodeMoves of each node in pre-order (f.Pre), appended into buf.
// Join-order moves are offered only when the resulting joins avoid
// Cartesian products; annotation moves are offered only for annotations the
// policy allows (Table 1) — which is how the optimizer is "configured to
// generate plans from one of the three policies" (§3.1.1). Copy moves exist
// only for replicated relations under policies that permit server-side
// scans, so an unreplicated catalog enumerates exactly the legacy move
// list. The result depends only on the tree's shape (plus the fixed policy
// and catalog), so callers cache it until a join-order move is accepted. It
// allocates nothing beyond growing buf; mask[i] must be the relations under
// node i.
func candidateMoves(q *query.Query, opts Options, cat *catalog.Catalog, f *plan.Flat, mask []uint64, buf []move) []move {
	moves := buf[:0]
	for _, i := range f.Pre {
		moves = nodeMoves(q, &opts, cat, f, mask, i, moves)
	}
	return moves
}

// nodeMoves appends the moves at node i. They depend on the node's
// children, their children and those nodes' masks alone, so a join-order
// move at n, with its join child k, changes the moves of n, k and n's
// parent only.
func nodeMoves(q *query.Query, opts *Options, cat *catalog.Catalog, f *plan.Flat, mask []uint64, i int32, moves []move) []move {
	nodes := f.Nodes
	n := &nodes[i]
	switch n.Kind {
	case plan.KindJoin:
		ai, bi := n.Left, n.Right
		a, b := &nodes[ai], &nodes[bi]
		if !opts.FixedJoinOrder && opts.LeftDeepOnly {
			// Moves closed over the left-deep space: swap the outer with
			// the adjacent lower outer, and commute the bottom join. Both
			// are compositions of the paper's moves 1-4 (e.g.
			// (X⋈A)⋈B → X⋈(A⋈B) → (X⋈B)⋈A).
			if a.Kind == plan.KindJoin {
				tx, ta := mask[a.Left], mask[a.Right]
				tb := mask[bi]
				if q.Connected(tx, tb) && q.Connected(tx|tb, ta) {
					moves = append(moves, move{i, mvSwapAdjacent, 0})
				}
			}
			if opts.Commutativity && a.Kind != plan.KindJoin {
				moves = append(moves, move{i, mvCommute, 0})
			}
		}
		if !opts.FixedJoinOrder && !opts.LeftDeepOnly {
			if a.Kind == plan.KindJoin {
				// (A⋈B)⋈C with A=a.Left, B=a.Right, C=b
				ta, tb := mask[a.Left], mask[a.Right]
				tc := mask[bi]
				if q.Connected(tb, tc) && q.Connected(ta, tb|tc) {
					moves = append(moves, move{i, mvAssocLeftToRight, 0})
				}
				if q.Connected(ta, tc) && q.Connected(tb, ta|tc) {
					moves = append(moves, move{i, mvExchangeLeft, 0})
				}
			}
			if b.Kind == plan.KindJoin {
				// A⋈(B⋈C) with A=a, B=b.Left, C=b.Right
				ta := mask[ai]
				tb, tc := mask[b.Left], mask[b.Right]
				if q.Connected(ta, tb) && q.Connected(ta|tb, tc) {
					moves = append(moves, move{i, mvAssocRightToLeft, 0})
				}
				if q.Connected(ta, tc) && q.Connected(ta|tc, tb) {
					moves = append(moves, move{i, mvExchangeRight, 0})
				}
			}
			if opts.Commutativity {
				moves = append(moves, move{i, mvCommute, 0})
			}
		}
		moves = appendAnnMoves(moves, i, mvJoinAnn, plan.KindJoin, opts.Policy)
	case plan.KindSelect, plan.KindAgg:
		moves = appendAnnMoves(moves, i, mvSelectAnn, n.Kind, opts.Policy)
	case plan.KindScan:
		moves = appendAnnMoves(moves, i, mvScanAnn, plan.KindScan, opts.Policy)
		moves = appendCopyMoves(moves, i, n, cat, opts.Policy)
	}
	return moves
}

// appendAnnMoves adds one slot per alternative annotation: a node with m
// allowed annotations always has exactly m-1 targets other than its current
// one, whatever that current one is.
func appendAnnMoves(moves []move, i int32, kind moveKind, k plan.Kind, p plan.Policy) []move {
	for s := 0; s < len(plan.AllowedAnnotations(k, p))-1; s++ {
		moves = append(moves, move{i, kind, s})
	}
	return moves
}

// appendCopyMoves adds one slot per alternative replica of a scan's
// relation. Like annotation moves the targets are slot-based (a relation
// with m copies always has m-1 alternatives), and they are offered only
// under policies that can place the scan at a server at all.
func appendCopyMoves(moves []move, i int32, n *plan.FlatNode, cat *catalog.Catalog, p plan.Policy) []move {
	if p == plan.DataShipping || cat == nil {
		return moves
	}
	for s := 0; s < numCopies(cat, n)-1; s++ {
		moves = append(moves, move{i, mvScanCopy, s})
	}
	return moves
}

// numCopies is the number of copies of the relation the scan n reads, or 0
// if the catalog lacks it.
func numCopies(cat *catalog.Catalog, n *plan.FlatNode) int {
	if rel := cat.ByID(n.Rel); rel != nil {
		return rel.NumCopies()
	}
	return 0
}

// targetCopy resolves a slot-based copy move: the slot-th copy index of the
// scan's relation, skipping the scan's current one.
func targetCopy(n *plan.FlatNode, numCopies, slot int) int {
	for c := 0; c < numCopies; c++ {
		if c == n.Copy {
			continue
		}
		if slot == 0 {
			return c
		}
		slot--
	}
	return n.Copy // unreachable for a legal move
}

// targetAnn resolves a slot-based annotation move: the slot-th allowed
// annotation for the node, skipping the node's current one.
func targetAnn(n *plan.FlatNode, p plan.Policy, slot int) plan.Annotation {
	for _, ann := range plan.AllowedAnnotations(n.Kind, p) {
		if ann == n.Ann {
			continue
		}
		if slot == 0 {
			return ann
		}
		slot--
	}
	return n.Ann // unreachable for a legal move
}

// undoRec restores the (at most two) rows a move rewrites and the subtree
// mask of the lower join it rewires, so the search can try a candidate in
// place and revert it without copying the plan.
type undoRec struct {
	n, k         int32 // k is -1 unless the move rewired a second join
	nRow, kRow   plan.FlatNode
	kMask        uint64
	changedShape bool
	// The children whose parent link the move changed; its revert changes
	// the same ones back.
	moved  [4]int32
	nMoved int
}

// revert undoes the move recorded by applyMove.
func (u *undoRec) revert(f *plan.Flat, mask []uint64) {
	f.Nodes[u.n] = u.nRow
	if u.k >= 0 {
		f.Nodes[u.k] = u.kRow
		mask[u.k] = u.kMask
	}
	if u.changedShape {
		u.nMoved = 0
		u.adopt(f, u.n)
		if u.k >= 0 {
			u.adopt(f, u.k)
		}
	}
}

// adopt points the parent links of node i's children back at i, recording
// the children whose link changes.
func (u *undoRec) adopt(f *plan.Flat, i int32) {
	nd := &f.Nodes[i]
	for _, c := range [2]int32{nd.Left, nd.Right} {
		if f.Nodes[c].Parent != i {
			f.Nodes[c].Parent = i
			u.moved[u.nMoved] = c
			u.nMoved++
		}
	}
}

// applyMove edits the flat plan in place, records the revert state in u,
// and reports whether the move changed the tree's shape (invalidating the
// cached move list). Join-order moves rewire the join n and, but for a
// commute, its join child k; the children they trade get their parent
// links updated, and k its subtree mask (n's is the union of the same
// relations before and after). Neighbors may be ill-formed (annotation
// cycles); callers must validate via binding, per §2.2.3 ("it is very easy
// to sort out ill-formed plans during query optimization").
func applyMove(f *plan.Flat, mask []uint64, mv move, p plan.Policy, cat *catalog.Catalog, u *undoRec) bool {
	nodes := f.Nodes
	i := mv.node
	n := &nodes[i]
	u.n, u.nRow, u.k, u.changedShape, u.nMoved = i, *n, -1, false, 0
	var k *plan.FlatNode
	save := func(ki int32) {
		k = &nodes[ki]
		u.k, u.kRow, u.kMask = ki, *k, mask[ki]
	}
	switch mv.kind {
	case mvAssocLeftToRight:
		// (A⋈B)⋈C → A⋈(B⋈C); the lower join node is reused for B⋈C.
		ki := n.Left
		save(ki)
		a, b, c := k.Left, k.Right, n.Right
		k.Left, k.Right = b, c
		n.Left, n.Right = a, ki
	case mvExchangeLeft:
		// (A⋈B)⋈C → B⋈(A⋈C)
		ki := n.Left
		save(ki)
		a, b, c := k.Left, k.Right, n.Right
		k.Left, k.Right = a, c
		n.Left, n.Right = b, ki
	case mvAssocRightToLeft:
		// A⋈(B⋈C) → (A⋈B)⋈C
		ki := n.Right
		save(ki)
		a, b, c := n.Left, k.Left, k.Right
		k.Left, k.Right = a, b
		n.Left, n.Right = ki, c
	case mvExchangeRight:
		// A⋈(B⋈C) → (A⋈C)⋈B
		ki := n.Right
		save(ki)
		a, b, c := n.Left, k.Left, k.Right
		k.Left, k.Right = a, c
		n.Left, n.Right = ki, b
	case mvSwapAdjacent:
		save(n.Left)
		k.Right, n.Right = n.Right, k.Right
	case mvCommute:
		n.Left, n.Right = n.Right, n.Left
		// Inner/outer annotations follow their operands across the swap so
		// the commute is a pure build/probe-side change, not a site change.
		switch n.Ann {
		case plan.AnnInner:
			n.Ann = plan.AnnOuter
		case plan.AnnOuter:
			n.Ann = plan.AnnInner
		}
		u.changedShape = true
		return true
	case mvJoinAnn, mvSelectAnn, mvScanAnn:
		n.Ann = targetAnn(n, p, mv.slot)
		return false
	case mvScanCopy:
		n.Copy = targetCopy(n, numCopies(cat, n), mv.slot)
		return false
	}
	u.adopt(f, i)
	u.adopt(f, u.k)
	mask[u.k] = mask[k.Left] | mask[k.Right]
	u.changedShape = true
	return true
}
