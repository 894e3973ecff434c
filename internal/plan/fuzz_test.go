package plan_test

import (
	"bytes"
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/plan"
)

// fuzzCatalog is a small schema with two homed relations; "Z" stays
// deliberately unknown so scans of missing relations are exercised.
func fuzzCatalog() *catalog.Catalog {
	cat := catalog.New(4096, 2)
	for _, r := range []catalog.Relation{
		{Name: "A", Tuples: 10000, TupleBytes: 100, Home: 0},
		{Name: "B", Tuples: 1000, TupleBytes: 100, Home: 1},
	} {
		if err := cat.AddRelation(r); err != nil {
			panic(err)
		}
	}
	return cat
}

// treeBuilder decodes a byte stream into an arbitrary annotated operator
// tree — including structurally broken ones (missing children, display
// below the root, out-of-range kinds and annotations), since the
// well-formedness checkers must reject those gracefully rather than panic.
type treeBuilder struct {
	data []byte
	pos  int
}

func (b *treeBuilder) next() byte {
	if b.pos >= len(b.data) {
		return 0
	}
	c := b.data[b.pos]
	b.pos++
	return c
}

func (b *treeBuilder) build(depth int) *plan.Node {
	op := b.next()
	if depth <= 0 {
		op %= 3 // force a leaf (or nil) once deep
	}
	newNode := func(k plan.Kind, left, right *plan.Node) *plan.Node {
		n := &plan.Node{Kind: k, Left: left, Right: right}
		// Valid annotation most of the time, arbitrary (possibly
		// out-of-range) otherwise.
		a := b.next()
		if a&0x80 != 0 {
			n.Ann = plan.Annotation(int8(a))
		} else {
			n.Ann = plan.Annotation(a % 6)
		}
		return n
	}
	switch op % 8 {
	case 0:
		return nil
	case 1:
		n := newNode(plan.KindScan, nil, nil)
		n.Table = []string{"A", "B", "Z", ""}[int(b.next())%4]
		return n
	case 2:
		return plan.NewScan([]string{"A", "B"}[int(b.next())%2])
	case 3:
		return newNode(plan.KindJoin, b.build(depth-1), b.build(depth-1))
	case 4:
		n := newNode(plan.KindSelect, b.build(depth-1), nil)
		n.Rel = "A"
		return n
	case 5:
		return newNode(plan.KindAgg, b.build(depth-1), nil)
	case 6:
		// Display in an arbitrary position (only legal at the root).
		return newNode(plan.KindDisplay, b.build(depth-1), nil)
	default:
		// Out-of-range kind: checkers must reject, not panic.
		return newNode(plan.Kind(int8(b.next())), b.build(depth-1), nil)
	}
}

// FuzzPlanWellFormed feeds random annotated trees through the plan
// validators and the binder. Invariants: nothing panics on any input, a
// plan the checkers accept binds successfully with every node bound, and
// an accepted plan survives a Marshal/Unmarshal round trip bit for bit and
// a flattening back into the same tree.
func FuzzPlanWellFormed(f *testing.F) {
	f.Add([]byte{6, 0, 3, 1, 2, 0, 1, 1, 2, 1})                   // display(join(scan,scan))
	f.Add([]byte{6, 0, 4, 2, 0, 1})                               // display(select(scan))
	f.Add([]byte{3, 2, 6, 0, 1, 0, 2})                            // display below root
	f.Add([]byte{7, 99, 1, 2, 3})                                 // bogus kind
	f.Add([]byte{0})                                              // nil plan
	f.Add(bytes.Repeat([]byte{3, 1}, 64))                         // deep join spine
	f.Add([]byte{6, 0, 5, 3, 0, 2, 0, 2, 1, 0xff, 0xfe, 0x81, 1}) // weird annotations

	cat := fuzzCatalog()
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := &treeBuilder{data: data}
		root := tb.build(12)

		// None of the checkers may panic, whatever the tree looks like.
		structErr := plan.CheckStructure(root)
		for p := plan.DataShipping; p <= plan.HybridShipping; p++ {
			_ = plan.ValidateFor(root, p)
		}

		binding, bindErr := plan.Bind(root, cat, catalog.Client)
		if ok := plan.WellFormed(root, cat, catalog.Client); ok != (bindErr == nil) {
			t.Fatalf("WellFormed = %v but Bind error = %v", ok, bindErr)
		}
		if bindErr == nil {
			if structErr != nil {
				t.Fatalf("Bind accepted a plan CheckStructure rejects: %v", structErr)
			}
			// Accept ⇒ bind succeeds and is total: one site per operator.
			nodes := 0
			root.Walk(func(*plan.Node) { nodes++ })
			if len(binding) != nodes {
				t.Fatalf("accepted plan of %d nodes has %d sites", nodes, len(binding))
			}
			// Bindable, policy-legal plans round-trip through the JSON
			// encoding. (Bind alone tolerates annotations Unmarshal's
			// hybrid-shipping legality check rejects, e.g. a display root
			// annotated consumer, so gate on ValidateFor.)
			if plan.ValidateFor(root, plan.HybridShipping) == nil {
				enc, err := plan.Marshal(root)
				if err != nil {
					t.Fatalf("Marshal of accepted plan: %v", err)
				}
				back, err := plan.Unmarshal(enc)
				if err != nil {
					t.Fatalf("Unmarshal of Marshal output: %v", err)
				}
				enc2, err := plan.Marshal(back)
				if err != nil {
					t.Fatalf("re-Marshal: %v", err)
				}
				if !bytes.Equal(enc, enc2) {
					t.Fatalf("round trip not stable:\n%s\nvs\n%s", enc, enc2)
				}
			}
			// The flat form rebuilds the same tree.
			var flat plan.Flat
			if err := flat.Reset(root, cat); err != nil {
				t.Fatalf("Flat.Reset of a bound plan: %v", err)
			}
			if got, want := flat.Tree().String(), root.String(); got != want {
				t.Fatalf("flat round trip:\n%s\nwant\n%s", got, want)
			}
		}
	})
}

// FuzzBinderReuse binds a sequence of fuzzed trees with one reused Binder
// and checks each result against a fresh package-level Bind: the same
// accept/reject decision, the same error text (Binder.Err's, for
// ErrUnbindable), and the same site for every node. Trees of different sizes and shapes follow each other, so scratch
// left over from an earlier bind cannot hide.
func FuzzBinderReuse(f *testing.F) {
	f.Add([]byte{6, 0, 3, 1, 2, 0, 1, 1, 2, 1, 6, 0, 4, 2, 0, 1})
	f.Add([]byte{6, 0, 3, 3, 2, 0, 2, 1, 5, 4, 2, 0, 3, 6, 0, 2, 1, 6, 0, 3, 1, 3, 2, 1, 1, 0, 2})
	f.Add(append(bytes.Repeat([]byte{3, 1}, 20), 6, 0, 2, 0))
	f.Add([]byte{6, 3, 3, 2, 0, 2, 1, 6, 4, 3, 2, 1, 2, 0})

	cat := fuzzCatalog()
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := &treeBuilder{data: data}
		var bd plan.Binder
		for k := 0; k < 4 && (k == 0 || tb.pos < len(data)); k++ {
			// Root most trees at a display so binding gets past the
			// structural check.
			var root *plan.Node
			if tb.next()%4 != 0 {
				root = plan.NewDisplay(tb.build(8))
			} else {
				root = tb.build(8)
			}
			sites, err := bd.Bind(root, cat, catalog.Client)
			if err == plan.ErrUnbindable {
				err = bd.Err()
			}
			want, wantErr := plan.Bind(root, cat, catalog.Client)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("tree %d: reused Binder error %v, fresh Bind error %v", k, err, wantErr)
			}
			if err != nil {
				continue
			}
			if len(sites) != len(want) {
				t.Fatalf("tree %d: %d sites from the reused Binder, %d from Bind", k, len(sites), len(want))
			}
			i := 0
			root.Walk(func(n *plan.Node) {
				if i >= len(sites) {
					t.Fatalf("tree %d: %d sites for a larger plan", k, len(sites))
				}
				if sites[i] != want[i] {
					t.Fatalf("tree %d: node %d (%v/%v) bound to %d by the reused Binder, %d by Bind",
						k, i, n.Kind, n.Ann, sites[i], want[i])
				}
				i++
			})
			if i != len(sites) {
				t.Fatalf("tree %d: %d sites for a plan of %d nodes", k, len(sites), i)
			}
		}
	})
}
