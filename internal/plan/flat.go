package plan

import (
	"slices"

	"hybridship/internal/catalog"
)

// Flat is a plan as one row per node: the form the binder, the cost model
// and the optimizer's search work on. Reset numbers the nodes of a tree in
// pre-order, so for a freshly flattened plan a node's ID is also its
// pre-order position. A search then edits the rows in place (moves relink
// children and change annotations and copies); from there on an ID names
// the same operator for the rest of the search but no longer its position,
// and Order recomputes the traversal orders from the links. The root is
// always node 0: no edit moves the display.
type Flat struct {
	Nodes []FlatNode
	// Src[i] is the tree node row i was flattened from. Edits never touch
	// it, so a search reads only what no move changes: the relation names.
	Src  []*Node
	Pre  []int32 // node IDs in pre-order
	Post []int32 // node IDs in post-order: left subtree, right subtree, node
	// PrePos[i] and PostPos[i] are node i's positions in Pre and Post.
	PrePos, PostPos []int32
	gen             uint64
}

// FlatNode is one operator of a Flat plan.
type FlatNode struct {
	Kind Kind
	Ann  Annotation
	Copy int
	// Rel is the catalog ID of the relation a scan reads or a select
	// filters, in the catalog Reset was given; 0 if that catalog lacks it,
	// and on every other kind.
	Rel                 catalog.RelID
	Left, Right, Parent int32 // node IDs; -1 for none
}

// Reset flattens root into f, reusing f's storage, after checking its
// structure as CheckStructure does (the same first error in pre-order).
// Relation names resolve to IDs in cat once, here; every reader of the rows
// trusts them.
func (f *Flat) Reset(root *Node, cat *catalog.Catalog) error {
	if err := checkRoot(root); err != nil {
		return err
	}
	n := size(root)
	if cap(f.Nodes) < n {
		order := make([]int32, 4*n)
		f.Nodes, f.Src = make([]FlatNode, 0, n), make([]*Node, 0, n)
		f.Pre, f.Post = order[:0:n], order[n:n:2*n]
		f.PrePos, f.PostPos = order[2*n:2*n:3*n], order[3*n:3*n]
	}
	f.Nodes, f.Src, f.Pre, f.Post = f.Nodes[:0], f.Src[:0], f.Pre[:0], f.Post[:0]
	f.gen++
	if _, err := f.add(root, -1, cat); err != nil {
		return err
	}
	f.PrePos, f.PostPos = f.PrePos[:n], f.PostPos[:n]
	for p, i := range f.Pre {
		f.PrePos[i] = int32(p)
	}
	for p, i := range f.Post {
		f.PostPos[i] = int32(p)
	}
	return nil
}

// Generation identifies the plan f holds: it changes on every Reset and
// never on an edit of the rows, so a consumer that keeps per-node state
// across calls knows when the IDs start naming other operators.
func (f *Flat) Generation() uint64 { return f.gen }

// size counts the nodes of n's subtree.
func size(n *Node) int {
	if n == nil {
		return 0
	}
	return 1 + size(n.Left) + size(n.Right)
}

// add appends n's subtree, n first, and returns n's ID.
func (f *Flat) add(n *Node, parent int32, cat *catalog.Catalog) (int32, error) {
	if err := checkOne(n, parent < 0); err != nil {
		return -1, err
	}
	id := int32(len(f.Nodes))
	row := FlatNode{Kind: n.Kind, Ann: n.Ann, Copy: n.Copy, Left: -1, Right: -1, Parent: parent}
	if name := n.RelName(); name != "" && cat != nil {
		row.Rel = cat.ID(name)
	}
	f.Nodes = append(f.Nodes, row)
	f.Src = append(f.Src, n)
	f.Pre = append(f.Pre, id)
	if n.Left != nil {
		l, err := f.add(n.Left, id, cat)
		if err != nil {
			return -1, err
		}
		f.Nodes[id].Left = l
	}
	if n.Right != nil {
		r, err := f.add(n.Right, id, cat)
		if err != nil {
			return -1, err
		}
		f.Nodes[id].Right = r
	}
	f.Post = append(f.Post, id)
	return id, nil
}

// Order recomputes Pre, Post and the positions from the rows' child links.
func (f *Flat) Order() {
	n := len(f.Nodes)
	f.Pre, f.Post = slices.Grow(f.Pre[:0], n)[:n], slices.Grow(f.Post[:0], n)[:n]
	f.PrePos, f.PostPos = slices.Grow(f.PrePos[:0], n)[:n], slices.Grow(f.PostPos[:0], n)[:n]
	f.Reorder(0, 0, 0)
}

// Reorder recomputes the stretch of Pre and Post that node i's subtree
// occupies, starting at position pre in Pre and post in Post, and its
// nodes' positions, and returns the subtree's size. A subtree is
// contiguous in both orders, so after an edit that rearranged node i's
// subtree and nothing else, its nodes fill the same stretches as before
// and the rest of both orders stands. Node i's first position in Post is
// its position in Pre less its depth: the nodes before its subtree in
// post-order are those before it in pre-order but its ancestors. The walk
// follows the child and parent links, which must agree.
func (f *Flat) Reorder(i, pre, post int32) int32 {
	start, nodes := pre, f.Nodes
	for at := i; ; {
		// Enter at: place it in Pre and go down to its first child.
		f.Pre[pre], f.PrePos[at] = at, pre
		pre++
		if nd := &nodes[at]; nd.Left >= 0 {
			at = nd.Left
			continue
		} else if nd.Right >= 0 {
			at = nd.Right
			continue
		}
		// Leave at, and every ancestor whose last child it closes, placing
		// each in Post; then enter the next right sibling.
		for {
			f.Post[post], f.PostPos[at] = at, post
			post++
			if at == i {
				return pre - start
			}
			p := nodes[at].Parent
			if r := nodes[p].Right; r >= 0 && r != at {
				at = r
				break
			}
			at = p
		}
	}
}

// Tree builds a fresh operator tree from the rows: the edited plan at the
// API edge. Names come from Src.
func (f *Flat) Tree() *Node {
	nodes := make([]Node, len(f.Nodes))
	for i := range f.Nodes {
		row, n := &f.Nodes[i], &nodes[i]
		*n = Node{Kind: row.Kind, Ann: row.Ann, Copy: row.Copy, Table: f.Src[i].Table, Rel: f.Src[i].Rel}
		if row.Left >= 0 {
			n.Left = &nodes[row.Left]
		}
		if row.Right >= 0 {
			n.Right = &nodes[row.Right]
		}
	}
	return &nodes[0]
}
