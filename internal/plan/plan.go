// Package plan implements the paper's execution plans (§2.1): binary operator
// trees whose nodes carry logical site annotations. The three execution
// policies — data-shipping, query-shipping and hybrid-shipping — are defined
// as restrictions on which annotations each operator may carry (Table 1), and
// annotations are bound to physical sites only at execution time.
package plan

import (
	"fmt"
	"strings"

	"hybridship/internal/catalog"
)

// Kind identifies the operator implemented by a node.
type Kind int

const (
	KindDisplay Kind = iota // root: presents results at the client
	KindJoin                // binary equijoin (hybrid hash)
	KindSelect              // unary predicate filter
	KindScan                // leaf: produces all tuples of a relation
	KindAgg                 // unary grouped aggregation over its input
)

func (k Kind) String() string {
	switch k {
	case KindDisplay:
		return "display"
	case KindJoin:
		return "join"
	case KindSelect:
		return "select"
	case KindScan:
		return "scan"
	case KindAgg:
		return "aggregate"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Annotation is a logical site annotation (§2.1). Annotations refer to
// logical sites and are bound to physical machines at execution time.
type Annotation int

const (
	// AnnClient places the operator at the site submitting the query.
	// Allowed on display (always) and scan (read from the client cache,
	// faulting missing pages from the relation's home server).
	AnnClient Annotation = iota
	// AnnConsumer places the operator at the site of its consumer (parent).
	AnnConsumer
	// AnnProducer places a select at the site of its child.
	AnnProducer
	// AnnInner places a join at the site producing its left-hand input.
	AnnInner
	// AnnOuter places a join at the site producing its right-hand input.
	AnnOuter
	// AnnPrimary places a scan at the server holding the relation's
	// primary copy.
	AnnPrimary
)

func (a Annotation) String() string {
	switch a {
	case AnnClient:
		return "client"
	case AnnConsumer:
		return "consumer"
	case AnnProducer:
		return "producer"
	case AnnInner:
		return "inner relation"
	case AnnOuter:
		return "outer relation"
	case AnnPrimary:
		return "primary copy"
	}
	return fmt.Sprintf("annotation(%d)", int(a))
}

// Policy is a query execution policy (§2.2).
type Policy int

const (
	DataShipping Policy = iota
	QueryShipping
	HybridShipping
)

func (p Policy) String() string {
	switch p {
	case DataShipping:
		return "DS"
	case QueryShipping:
		return "QS"
	case HybridShipping:
		return "HY"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// allowedTable caches the Table 1 annotation sets per (kind, policy) so the
// optimizer's hot path doesn't allocate a slice on every lookup.
var allowedTable = func() [5][3][]Annotation {
	var t [5][3][]Annotation
	for k := KindDisplay; k <= KindAgg; k++ {
		for p := DataShipping; p <= HybridShipping; p++ {
			t[k][p] = computeAllowed(k, p)
		}
	}
	return t
}()

// AllowedAnnotations reproduces Table 1: the annotations each policy permits
// for an operator kind. The returned slice is shared and must not be
// modified.
func AllowedAnnotations(k Kind, p Policy) []Annotation {
	if k < 0 || int(k) >= len(allowedTable) || p < 0 || int(p) >= len(allowedTable[0]) {
		return nil
	}
	return allowedTable[k][p]
}

func computeAllowed(k Kind, p Policy) []Annotation {
	switch k {
	case KindDisplay:
		return []Annotation{AnnClient}
	case KindJoin:
		switch p {
		case DataShipping:
			return []Annotation{AnnConsumer}
		case QueryShipping:
			return []Annotation{AnnInner, AnnOuter}
		case HybridShipping:
			return []Annotation{AnnConsumer, AnnInner, AnnOuter}
		}
	case KindSelect, KindAgg:
		// Footnote 4 of the paper: other unary operators (aggregations,
		// projections) are annotated like selections.
		switch p {
		case DataShipping:
			return []Annotation{AnnConsumer}
		case QueryShipping:
			return []Annotation{AnnProducer}
		case HybridShipping:
			return []Annotation{AnnConsumer, AnnProducer}
		}
	case KindScan:
		switch p {
		case DataShipping:
			return []Annotation{AnnClient}
		case QueryShipping:
			return []Annotation{AnnPrimary}
		case HybridShipping:
			return []Annotation{AnnClient, AnnPrimary}
		}
	}
	return nil
}

// Node is one operator of a plan. For joins, Left is the inner (left-hand,
// build) input and Right the outer (right-hand, probe) input. Select and
// display have a single child in Left.
type Node struct {
	Kind  Kind
	Ann   Annotation
	Left  *Node
	Right *Node
	Table string // scan: relation name
	Rel   string // select: the relation whose predicate this select applies

	// Copy selects which replica a primary-copy scan reads: an index into
	// the relation's copy list, 0 being the primary at Home. Ignored for
	// client-annotated scans and meaningless on other kinds. Zero on every
	// legacy plan, so unreplicated catalogs bind exactly as before.
	Copy int
}

// RelName returns the relation a scan reads or a select filters, and ""
// for every other kind.
func (n *Node) RelName() string {
	switch n.Kind {
	case KindScan:
		return n.Table
	case KindSelect:
		return n.Rel
	}
	return ""
}

// Constructors for each operator kind.

// NewScan creates a scan leaf with a primary-copy annotation.
func NewScan(table string) *Node { return &Node{Kind: KindScan, Ann: AnnPrimary, Table: table} }

// NewJoin creates a join with inner (left) and outer (right) inputs,
// annotated to run at the site of the inner input.
func NewJoin(inner, outer *Node) *Node {
	return &Node{Kind: KindJoin, Ann: AnnInner, Left: inner, Right: outer}
}

// NewSelect creates a selection over the named relation's predicate,
// annotated producer.
func NewSelect(child *Node, rel string) *Node {
	return &Node{Kind: KindSelect, Ann: AnnProducer, Left: child, Rel: rel}
}

// NewAgg creates a grouped aggregation over its child, annotated producer.
func NewAgg(child *Node) *Node {
	return &Node{Kind: KindAgg, Ann: AnnProducer, Left: child}
}

// NewDisplay wraps a tree with the client-side display root.
func NewDisplay(child *Node) *Node {
	return &Node{Kind: KindDisplay, Ann: AnnClient, Left: child}
}

// Clone deep-copies the tree.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.Left = n.Left.Clone()
	c.Right = n.Right.Clone()
	return &c
}

// Walk visits the tree in pre-order.
func (n *Node) Walk(f func(*Node)) {
	if n == nil {
		return
	}
	f(n)
	n.Left.Walk(f)
	n.Right.Walk(f)
}

// Joins returns all join nodes in the subtree, in pre-order.
func (n *Node) Joins() []*Node {
	var out []*Node
	n.Walk(func(m *Node) {
		if m.Kind == KindJoin {
			out = append(out, m)
		}
	})
	return out
}

// Scans returns all scan leaves in the subtree, in pre-order.
func (n *Node) Scans() []*Node {
	var out []*Node
	n.Walk(func(m *Node) {
		if m.Kind == KindScan {
			out = append(out, m)
		}
	})
	return out
}

// CheckStructure validates operator arities and the position of the display
// root.
func CheckStructure(root *Node) error {
	if err := checkRoot(root); err != nil {
		return err
	}
	return checkNode(root, true)
}

// checkRoot is CheckStructure's test of the root itself.
func checkRoot(root *Node) error {
	if root == nil {
		return fmt.Errorf("plan: empty plan")
	}
	if root.Kind != KindDisplay {
		return fmt.Errorf("plan: root must be display, got %v", root.Kind)
	}
	return nil
}

// checkNode is CheckStructure's recursion: n's own shape, then its left and
// right subtrees, so the first violation in pre-order is the one reported.
func checkNode(n *Node, isRoot bool) error {
	if n == nil {
		return nil
	}
	if err := checkOne(n, isRoot); err != nil {
		return err
	}
	if err := checkNode(n.Left, false); err != nil {
		return err
	}
	return checkNode(n.Right, false)
}

// checkOne checks the shape of the node n alone.
func checkOne(n *Node, isRoot bool) error {
	switch n.Kind {
	case KindDisplay:
		if !isRoot {
			return fmt.Errorf("plan: display below the root")
		}
		if n.Left == nil || n.Right != nil {
			return fmt.Errorf("plan: display must have exactly one child")
		}
	case KindJoin:
		if n.Left == nil || n.Right == nil {
			return fmt.Errorf("plan: join must have two children")
		}
	case KindSelect, KindAgg:
		if n.Left == nil || n.Right != nil {
			return fmt.Errorf("plan: %v must have exactly one child", n.Kind)
		}
	case KindScan:
		if n.Left != nil || n.Right != nil {
			return fmt.Errorf("plan: scan must be a leaf")
		}
		if n.Table == "" {
			return fmt.Errorf("plan: scan without a relation")
		}
		if n.Copy < 0 {
			return fmt.Errorf("plan: scan of %q has negative copy index %d", n.Table, n.Copy)
		}
	}
	if n.Kind != KindScan && n.Copy != 0 {
		return fmt.Errorf("plan: %v carries a copy index; only scans read replicas", n.Kind)
	}
	return nil
}

// ValidateFor checks that every node's annotation is allowed under the
// policy (Table 1) and that the structure is sound.
func ValidateFor(root *Node, p Policy) error {
	if err := CheckStructure(root); err != nil {
		return err
	}
	var err error
	root.Walk(func(n *Node) {
		if err != nil {
			return
		}
		for _, a := range AllowedAnnotations(n.Kind, p) {
			if n.Ann == a {
				return
			}
		}
		err = fmt.Errorf("plan: %v annotation %v not allowed under %v", n.Kind, n.Ann, p)
	})
	return err
}

// String renders the plan as an indented tree with annotations.
func (n *Node) String() string { return format(n, nil, false) }

// FormatBound renders the plan with both annotations and bound sites; a
// node beyond the end of the binding shows its site as "?".
func FormatBound(n *Node, b Binding) string { return format(n, b, true) }

// format renders n as an indented pre-order tree, one node per line with
// its annotation, and with its site in b appended when bound is set.
func format(n *Node, b Binding, bound bool) string {
	var sb strings.Builder
	var rec func(m *Node, depth int)
	id := 0 // the next node's ID: rec visits in pre-order
	rec = func(m *Node, depth int) {
		if m == nil {
			return
		}
		sb.WriteString(strings.Repeat("  ", depth))
		switch m.Kind {
		case KindScan:
			if m.Copy != 0 {
				fmt.Fprintf(&sb, "scan(%s) [%v #%d]", m.Table, m.Ann, m.Copy)
			} else {
				fmt.Fprintf(&sb, "scan(%s) [%v]", m.Table, m.Ann)
			}
		case KindSelect:
			fmt.Fprintf(&sb, "select(%s) [%v]", m.Rel, m.Ann)
		default:
			fmt.Fprintf(&sb, "%v [%v]", m.Kind, m.Ann)
		}
		if bound {
			site := "?"
			if id < len(b) {
				site = "client"
				if s := b[id]; s != catalog.Client {
					site = fmt.Sprintf("server %d", int(s))
				}
			}
			sb.WriteString(" @ " + site)
		}
		id++
		sb.WriteByte('\n')
		rec(m.Left, depth+1)
		rec(m.Right, depth+1)
	}
	rec(n, 0)
	return sb.String()
}
