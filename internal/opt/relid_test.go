package opt

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/cost"
	"hybridship/internal/plan"
	"hybridship/internal/query"
)

// starEnv is chainEnv with a star join graph: R0 joins every other relation.
func starEnv(n, servers int) (*catalog.Catalog, *query.Query) {
	cat, q := chainEnv(n, servers, 0)
	for i := range q.Preds {
		q.Preds[i].A = q.Relations[0]
	}
	if err := q.Validate(); err != nil {
		panic(err)
	}
	return cat, q
}

// tableSet is the set of relation names scanned under n, found by walking
// the tree.
func tableSet(n *plan.Node) map[string]bool {
	s := map[string]bool{}
	n.Walk(func(m *plan.Node) {
		if m.Kind == plan.KindScan {
			s[m.Table] = true
		}
	})
	return s
}

// connectedByName reports whether some predicate of q joins a relation of
// a to one of b, by a scan over q.Preds.
func connectedByName(q *query.Query, a, b map[string]bool) bool {
	for _, p := range q.Preds {
		if (a[p.A] && b[p.B]) || (a[p.B] && b[p.A]) {
			return true
		}
	}
	return false
}

func unionSet(a, b map[string]bool) map[string]bool {
	u := maps.Clone(a)
	maps.Copy(u, b)
	return u
}

// candidateMovesByName is an independent reference for candidateMoves: the
// same enumeration over a tree, with each subtree's relations found by
// walking it, connectivity tested by scanning the predicates and copies
// counted by name, instead of through the flat plan's masks, the query's
// adjacency masks and relation IDs. nodes is the tree in pre-order and
// ids[i] the flat node ID of nodes[i], which the moves carry.
func candidateMovesByName(q *query.Query, opts Options, cat *catalog.Catalog, nodes []*plan.Node, ids []int32) []move {
	var moves []move
	for p, n := range nodes {
		i := ids[p]
		switch n.Kind {
		case plan.KindJoin:
			a, b := n.Left, n.Right
			if !opts.FixedJoinOrder && opts.LeftDeepOnly {
				if a.Kind == plan.KindJoin {
					tx, ta, tb := tableSet(a.Left), tableSet(a.Right), tableSet(b)
					if connectedByName(q, tx, tb) && connectedByName(q, unionSet(tx, tb), ta) {
						moves = append(moves, move{i, mvSwapAdjacent, 0})
					}
				}
				if opts.Commutativity && a.Kind != plan.KindJoin {
					moves = append(moves, move{i, mvCommute, 0})
				}
			}
			if !opts.FixedJoinOrder && !opts.LeftDeepOnly {
				if a.Kind == plan.KindJoin {
					ta, tb, tc := tableSet(a.Left), tableSet(a.Right), tableSet(b)
					if connectedByName(q, tb, tc) && connectedByName(q, ta, unionSet(tb, tc)) {
						moves = append(moves, move{i, mvAssocLeftToRight, 0})
					}
					if connectedByName(q, ta, tc) && connectedByName(q, tb, unionSet(ta, tc)) {
						moves = append(moves, move{i, mvExchangeLeft, 0})
					}
				}
				if b.Kind == plan.KindJoin {
					ta, tb, tc := tableSet(a), tableSet(b.Left), tableSet(b.Right)
					if connectedByName(q, ta, tb) && connectedByName(q, unionSet(ta, tb), tc) {
						moves = append(moves, move{i, mvAssocRightToLeft, 0})
					}
					if connectedByName(q, ta, tc) && connectedByName(q, unionSet(ta, tc), tb) {
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
			if opts.Policy != plan.DataShipping {
				for s := 0; s < cat.MustRelation(n.Table).NumCopies()-1; s++ {
					moves = append(moves, move{i, mvScanCopy, s})
				}
			}
		}
	}
	return moves
}

// TestCandidateMovesMaskMatchesMaps checks the bitmask move enumeration
// against candidateMovesByName, move for move and in order, on random plans
// of 3 to 12 relations and on the plans a random walk of moves reaches from
// them. It covers chain and star join graphs, a replicated catalog (copy
// moves), and every option that changes the move set.
func TestCandidateMovesMaskMatchesMaps(t *testing.T) {
	variants := []struct {
		name string
		set  func(*Options)
	}{
		{"bushy", func(*Options) {}},
		{"no-commute", func(o *Options) { o.Commutativity = false }},
		{"left-deep", func(o *Options) { o.LeftDeepOnly = true }},
		{"fixed-order", func(o *Options) { o.FixedJoinOrder = true }},
	}
	for n := 3; n <= 12; n++ {
		for _, graph := range []string{"chain", "star"} {
			cat, q := chainEnv(n, 4, 0)
			if graph == "star" {
				cat, q = starEnv(n, 4)
			}
			if err := cat.ReplicateAll(2, int64(n)); err != nil {
				t.Fatal(err)
			}
			for _, v := range variants {
				name := fmt.Sprintf("%s/%d/%s", graph, n, v.name)
				opts := DefaultOptions(plan.HybridShipping, cost.MetricResponseTime, int64(n))
				v.set(&opts)
				o := New(&cost.Model{Params: cost.DefaultParams(), Catalog: cat, Query: q}, opts)
				rng := rand.New(rand.NewSource(int64(n)))
				for start := 0; start < 3; start++ {
					r, err := o.RandomPlan()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var f plan.Flat
					if err := f.Reset(r.Plan, cat); err != nil {
						t.Fatal(err)
					}
					mask := subtreeMasks(&f, o.bits, nil)
					var u undoRec
					for step := 0; step < 40; step++ {
						tree := f.Tree()
						var nodes []*plan.Node
						tree.Walk(func(n *plan.Node) { nodes = append(nodes, n) })
						masks := candidateMoves(q, o.opts, cat, &f, mask, nil)
						maps := candidateMovesByName(q, o.opts, cat, nodes, f.Pre)
						if !slices.Equal(masks, maps) {
							t.Fatalf("%s start %d step %d: mask moves %v, map moves %v\n%s",
								name, start, step, masks, maps, tree)
						}
						if len(masks) == 0 {
							break
						}
						applyMove(&f, mask, masks[rng.Intn(len(masks))], o.opts.Policy, cat, &u)
						f.Order()
					}
				}
			}
		}
	}
}

// wideChainEnv is chainEnv with one relation more than a relation mask
// holds. It is built unvalidated: Validate rejects it.
func wideChainEnv() (*catalog.Catalog, *query.Query) {
	cat, q := chainEnv(query.MaxRelations, 5, 0)
	name := fmt.Sprint("R", query.MaxRelations)
	if err := cat.AddRelation(catalog.Relation{Name: name, Tuples: 10000, TupleBytes: 100}); err != nil {
		panic(err)
	}
	q.Preds = append(q.Preds, query.Pred{A: q.Relations[len(q.Relations)-1], B: name, Selectivity: 1.0 / 10000})
	q.Relations = append(q.Relations, name)
	return cat, q
}

// TestWideQueryRejected checks that every optimizer entry point returns
// Validate's error for a query too wide for a relation mask, rather than
// panicking in the mask tables.
func TestWideQueryRejected(t *testing.T) {
	cat, q := wideChainEnv()
	want := q.Validate()
	if want == nil {
		t.Fatal("Validate accepted a 65-relation query")
	}
	o := newOpt(cat, q, plan.HybridShipping, cost.MetricResponseTime, 65)
	tree := plan.NewScan(q.Relations[0])
	for _, r := range q.Relations[1:] {
		tree = plan.NewJoin(tree, plan.NewScan(r))
	}
	root := plan.NewDisplay(tree)
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Optimize", func() error { _, err := o.Optimize(); return err }},
		{"OptimizeFrom", func() error { _, err := o.OptimizeFrom(root); return err }},
		{"RandomPlan", func() error { _, err := o.RandomPlan(); return err }},
		{"DP.Optimize", func() error {
			_, err := newDP(cat, q, plan.HybridShipping, cost.MetricResponseTime, false).Optimize()
			return err
		}},
	} {
		if err := c.run(); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: error %v, want %v", c.name, err, want)
		}
	}
}

// TestForeignRelIDs takes a plan optimized against one model and uses it
// against others, as 2-step optimization does with a plan compiled against
// an assumed catalog: a cloned catalog with a query listing its relations
// in reverse order (other mask bits), a catalog registering the relations
// in reverse order (every relation ID names another relation), and both.
// Relation IDs exist only inside a flattening, resolved against the catalog
// at hand, so plan.Bind, Model.Estimate and OptimizeFrom must treat the
// search's plan exactly like a copy decoded from its JSON.
func TestForeignRelIDs(t *testing.T) {
	const cached = 0.5
	cat, q := chainEnv(6, 3, cached)
	q.Selects = map[string]float64{"R1": 0.5, "R4": 0.1}
	if err := cat.ReplicateAll(2, 7); err != nil {
		t.Fatal(err)
	}
	src, err := newOpt(cat, q, plan.HybridShipping, cost.MetricResponseTime, 7).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := plan.Marshal(src.Plan)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := plan.Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}

	reversedCat := catalog.New(cat.PageSize, cat.NumServers)
	names := cat.Relations()
	for i := len(names) - 1; i >= 0; i-- {
		rel := *cat.MustRelation(names[i])
		if err := reversedCat.AddRelation(rel); err != nil {
			t.Fatal(err)
		}
		if err := reversedCat.SetCachedFraction(rel.Name, cached); err != nil {
			t.Fatal(err)
		}
	}
	reversedQ := &query.Query{Preds: q.Preds, ResultTupleBytes: q.ResultTupleBytes, Selects: q.Selects}
	for i := len(q.Relations) - 1; i >= 0; i-- {
		reversedQ.Relations = append(reversedQ.Relations, q.Relations[i])
	}

	for _, env := range []struct {
		name string
		cat  *catalog.Catalog
		q    *query.Query
	}{
		{"same model", cat, q},
		{"cloned catalog, reversed query", cat.Clone(), reversedQ},
		{"reversed catalog", reversedCat, q},
		{"reversed catalog and query", reversedCat, reversedQ},
	} {
		m := &cost.Model{Params: cost.DefaultParams(), Catalog: env.cat, Query: env.q}
		wantB, err := plan.Bind(fresh, env.cat, catalog.Client)
		if err != nil {
			t.Fatalf("%s: %v", env.name, err)
		}
		want := m.Estimate(fresh, wantB)
		wantOpt, err := New(m, DefaultOptions(plan.HybridShipping, cost.MetricResponseTime, 8)).OptimizeFrom(fresh)
		if err != nil {
			t.Fatalf("%s: %v", env.name, err)
		}
		root := src.Plan.Clone()
		b, err := plan.Bind(root, env.cat, catalog.Client)
		if err != nil {
			t.Fatalf("%s: %v", env.name, err)
		}
		if got := plan.FormatBound(root, b); got != plan.FormatBound(fresh, wantB) {
			t.Errorf("%s: binding\n%s\nwant\n%s", env.name, got, plan.FormatBound(fresh, wantB))
		}
		if got := m.Estimate(root, b); estBits(got) != estBits(want) {
			t.Errorf("%s: estimate %+v, want %+v", env.name, got, want)
		}
		got, err := New(m, DefaultOptions(plan.HybridShipping, cost.MetricResponseTime, 8)).OptimizeFrom(root)
		if err != nil {
			t.Fatalf("%s: %v", env.name, err)
		}
		if winner(got) != winner(wantOpt) {
			t.Errorf("%s: OptimizeFrom gives %+v, want %+v", env.name, winner(got), winner(wantOpt))
		}
	}
}
