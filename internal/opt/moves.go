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

// move is one candidate transformation: a node (identified by its pre-order
// index into the step's node slice) plus a kind and, for annotation moves, a
// slot selecting the target among the policy's allowed annotations for that
// node, skipping the node's current one. Slot-based targets keep the move
// list a function of the tree's *shape* only (the number of allowed
// annotations depends on kind and policy, never on the current annotation),
// so the enumeration can be cached across annotation-only moves.
type move struct {
	nodeIdx int
	kind    moveKind
	slot    int
}

// indexNodes rebuilds the pre-order node index into buf (reusing its backing
// array) and returns it. The index replaces per-move O(n) tree walks: move
// application resolves its target node with one slice lookup.
func indexNodes(root *plan.Node, buf []*plan.Node) []*plan.Node {
	buf = buf[:0]
	var rec func(n *plan.Node)
	rec = func(n *plan.Node) {
		if n == nil {
			return
		}
		buf = append(buf, n)
		rec(n.Left)
		rec(n.Right)
	}
	rec(root)
	return buf
}

// relBits maps catalog relation IDs to the query's relation bits
// (Query.RelMask), so the shape index finds a scan's bit by slice index.
type relBits struct {
	cat  *catalog.Catalog
	q    *query.Query
	bits []uint64 // the bit of the relation with catalog ID id is bits[id-1]
}

// newRelBits sets bit i for Relations[i], as Query.RelMask does, without
// calling it: New runs before any search has validated the query, and
// RelMask panics on one too wide to validate.
func newRelBits(q *query.Query, cat *catalog.Catalog) relBits {
	r := relBits{cat: cat, q: q}
	if cat != nil {
		r.bits = make([]uint64, len(cat.Relations()))
		for i, name := range q.Relations {
			if id := cat.ID(name); id != 0 {
				r.bits[id-1] = 1 << uint(i)
			}
		}
	}
	return r
}

// of returns the query bit of the relation the scan n reads: by its RelID
// when that is valid, else by name.
func (r *relBits) of(n *plan.Node) uint64 {
	if r.cat != nil {
		if i := int(r.cat.Resolve(n.RelID, n.Table)) - 1; uint(i) < uint(len(r.bits)) {
			return r.bits[i]
		}
	}
	return r.q.RelMask(n.Table)
}

// resolveRelIDs sets the RelID of every scan and select under n to its
// relation's ID in cat (0 for a relation cat lacks).
func resolveRelIDs(n *plan.Node, cat *catalog.Catalog) {
	if n == nil || cat == nil {
		return
	}
	if name := n.RelName(); name != "" {
		n.RelID = cat.ID(name)
	}
	resolveRelIDs(n.Left, cat)
	resolveRelIDs(n.Right, cat)
}

// shapeIndex records, per pre-order position of a node index, the size of
// the subtree rooted there and the base-relation bitmask it scans. A node's
// left child, if any, is at i+1 and its right child at i+1+size[i+1]. It is
// a pure function of the tree's shape, built once per shape alongside
// indexNodes so the move enumeration looks masks up instead of re-walking
// subtrees.
type shapeIndex struct {
	size []int
	mask []uint64
}

// build recomputes the index for nodes, the pre-order index of a tree,
// visiting positions in reverse so children precede their parents.
func (s *shapeIndex) build(bits *relBits, nodes []*plan.Node) {
	s.size = slices.Grow(s.size[:0], len(nodes))[:len(nodes)]
	s.mask = slices.Grow(s.mask[:0], len(nodes))[:len(nodes)]
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		size, mask := 1, uint64(0)
		if n.Kind == plan.KindScan {
			mask = bits.of(n)
		}
		if n.Left != nil {
			size += s.size[i+1]
			mask |= s.mask[i+1]
		}
		if n.Right != nil {
			r := i + size
			size += s.size[r]
			mask |= s.mask[r]
		}
		s.size[i], s.mask[i] = size, mask
	}
}

// children returns the positions of the left and right children of the
// node at position i, which must have both.
func (s *shapeIndex) children(i int) (left, right int) {
	return i + 1, i + 1 + s.size[i+1]
}

// candidateMoves enumerates every legal move on the plan under the policy,
// appending into buf. Join-order moves are offered only when the resulting
// joins avoid Cartesian products; annotation moves are offered only for
// annotations the policy allows (Table 1) — which is how the optimizer is
// "configured to generate plans from one of the three policies" (§3.1.1).
// Copy moves exist only for replicated relations under policies that permit
// server-side scans, so an unreplicated catalog enumerates exactly the
// legacy move list. The result depends only on the tree's shape (plus the
// fixed policy and catalog), so callers cache it until a join-order move is
// accepted. It allocates nothing beyond growing buf; shape must index nodes.
func candidateMoves(q *query.Query, opts Options, cat *catalog.Catalog, nodes []*plan.Node, shape *shapeIndex, buf []move) []move {
	moves := buf[:0]
	mask := shape.mask
	for i, n := range nodes {
		switch n.Kind {
		case plan.KindJoin:
			ai, bi := shape.children(i)
			if !opts.FixedJoinOrder && opts.LeftDeepOnly {
				// Moves closed over the left-deep space: swap the outer with
				// the adjacent lower outer, and commute the bottom join.
				// Both are compositions of the paper's moves 1-4 (e.g.
				// (X⋈A)⋈B → X⋈(A⋈B) → (X⋈B)⋈A).
				a := n.Left
				if a.Kind == plan.KindJoin {
					xi, aRi := shape.children(ai)
					tx, ta := mask[xi], mask[aRi]
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
				a, b := n.Left, n.Right
				if a.Kind == plan.KindJoin {
					// (A⋈B)⋈C with A=a.Left, B=a.Right, C=b
					aLi, aRi := shape.children(ai)
					ta, tb := mask[aLi], mask[aRi]
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
					bLi, bRi := shape.children(bi)
					tb, tc := mask[bLi], mask[bRi]
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
	}
	return moves
}

// appendAnnMoves adds one slot per alternative annotation: a node with m
// allowed annotations always has exactly m-1 targets other than its current
// one, whatever that current one is.
func appendAnnMoves(moves []move, i int, kind moveKind, k plan.Kind, p plan.Policy) []move {
	for s := 0; s < len(plan.AllowedAnnotations(k, p))-1; s++ {
		moves = append(moves, move{i, kind, s})
	}
	return moves
}

// appendCopyMoves adds one slot per alternative replica of a scan's
// relation. Like annotation moves the targets are slot-based (a relation
// with m copies always has m-1 alternatives), and they are offered only
// under policies that can place the scan at a server at all.
func appendCopyMoves(moves []move, i int, n *plan.Node, cat *catalog.Catalog, p plan.Policy) []move {
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
func numCopies(cat *catalog.Catalog, n *plan.Node) int {
	if rel, ok := cat.Lookup(n.RelID, n.Table); ok {
		return rel.NumCopies()
	}
	return 0
}

// targetCopy resolves a slot-based copy move: the slot-th copy index of the
// scan's relation, skipping the scan's current one.
func targetCopy(n *plan.Node, numCopies, slot int) int {
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
func targetAnn(n *plan.Node, p plan.Policy, slot int) plan.Annotation {
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

// undoRec restores the (at most two) nodes a move rewires, so the search
// can try a candidate in place and revert it without cloning the tree.
type undoRec struct {
	n, k          *plan.Node
	nLeft, nRight *plan.Node
	kLeft, kRight *plan.Node
	nAnn, kAnn    plan.Annotation
	nCopy         int
	changedShape  bool
}

// revert undoes the move recorded by applyMove.
func (u *undoRec) revert() {
	if u.n != nil {
		u.n.Left, u.n.Right, u.n.Ann, u.n.Copy = u.nLeft, u.nRight, u.nAnn, u.nCopy
	}
	if u.k != nil {
		u.k.Left, u.k.Right, u.k.Ann = u.kLeft, u.kRight, u.kAnn
	}
}

// applyMove mutates the plan in place, records the revert state in u, and
// reports whether the move changed the tree's shape (invalidating the node
// index and the cached move list). Neighbors may be ill-formed (annotation
// cycles); callers must validate via binding, per §2.2.3 ("it is very easy
// to sort out ill-formed plans during query optimization").
func applyMove(nodes []*plan.Node, mv move, p plan.Policy, cat *catalog.Catalog, u *undoRec) bool {
	n := nodes[mv.nodeIdx]
	*u = undoRec{n: n, nLeft: n.Left, nRight: n.Right, nAnn: n.Ann, nCopy: n.Copy}
	saveChild := func(k *plan.Node) {
		u.k, u.kLeft, u.kRight, u.kAnn = k, k.Left, k.Right, k.Ann
	}
	switch mv.kind {
	case mvAssocLeftToRight:
		// (A⋈B)⋈C → A⋈(B⋈C); the lower join node is reused for B⋈C.
		k := n.Left
		saveChild(k)
		a, b, c := k.Left, k.Right, n.Right
		k.Left, k.Right = b, c
		n.Left, n.Right = a, k
		u.changedShape = true
	case mvExchangeLeft:
		// (A⋈B)⋈C → B⋈(A⋈C)
		k := n.Left
		saveChild(k)
		a, b, c := k.Left, k.Right, n.Right
		k.Left, k.Right = a, c
		n.Left, n.Right = b, k
		u.changedShape = true
	case mvAssocRightToLeft:
		// A⋈(B⋈C) → (A⋈B)⋈C
		k := n.Right
		saveChild(k)
		a, b, c := n.Left, k.Left, k.Right
		k.Left, k.Right = a, b
		n.Left, n.Right = k, c
		u.changedShape = true
	case mvExchangeRight:
		// A⋈(B⋈C) → (A⋈C)⋈B
		k := n.Right
		saveChild(k)
		a, b, c := n.Left, k.Left, k.Right
		k.Left, k.Right = a, c
		n.Left, n.Right = k, b
		u.changedShape = true
	case mvSwapAdjacent:
		k := n.Left
		saveChild(k)
		k.Right, n.Right = n.Right, k.Right
		u.changedShape = true
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
	case mvJoinAnn, mvSelectAnn, mvScanAnn:
		n.Ann = targetAnn(n, p, mv.slot)
	case mvScanCopy:
		n.Copy = targetCopy(n, numCopies(cat, n), mv.slot)
	}
	return u.changedShape
}

// neighbor returns a random legal transformation of the plan, or ok=false
// if the plan admits no moves. The returned tree is a fresh clone; the
// input is not modified. It is the non-destructive counterpart of the
// in-place searchState stepping, kept for one-off exploration and tests.
func (o *Optimizer) neighbor(root *plan.Node) (*plan.Node, bool) {
	nodes := indexNodes(root, nil)
	var shape shapeIndex
	shape.build(&o.bits, nodes)
	moves := candidateMoves(o.model.Query, o.opts, o.model.Catalog, nodes, &shape, nil)
	if len(moves) == 0 {
		return nil, false
	}
	o.mu.Lock()
	mv := moves[o.rng.Intn(len(moves))]
	o.mu.Unlock()
	next := root.Clone()
	var u undoRec
	applyMove(indexNodes(next, nil), mv, o.opts.Policy, o.model.Catalog, &u)
	return next, true
}
