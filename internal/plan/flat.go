package plan

import "hybridship/internal/catalog"

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
	gen  uint64
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
	if n := size(root); cap(f.Nodes) < n {
		order := make([]int32, 2*n)
		f.Nodes, f.Src = make([]FlatNode, 0, n), make([]*Node, 0, n)
		f.Pre, f.Post = order[:0:n], order[n:n]
	}
	f.Nodes, f.Src, f.Pre, f.Post = f.Nodes[:0], f.Src[:0], f.Pre[:0], f.Post[:0]
	f.gen++
	_, err := f.add(root, -1, cat)
	return err
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

// Order recomputes Pre and Post from the rows' child links.
func (f *Flat) Order() {
	f.Pre, f.Post = f.Pre[:0], f.Post[:0]
	f.order(0)
}

func (f *Flat) order(i int32) {
	f.Pre = append(f.Pre, i)
	nd := &f.Nodes[i]
	if nd.Left >= 0 {
		f.order(nd.Left)
	}
	if nd.Right >= 0 {
		f.order(nd.Right)
	}
	f.Post = append(f.Post, i)
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
