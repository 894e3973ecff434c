package opt

import (
	"fmt"
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

// TestCandidateMovesMaskMatchesMaps checks the bitmask move enumeration
// against the map-set fallback, move for move and in order, on random plans
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
					nodes := indexNodes(r.Plan, nil)
					var shape shapeIndex
					var u undoRec
					for step := 0; step < 40; step++ {
						shape.build(&o.bits, nodes)
						masks := candidateMovesMask(q, o.opts, cat, nodes, &shape, nil)
						maps := candidateMovesMaps(q, o.opts, cat, nodes, nil)
						if !slices.Equal(masks, maps) {
							t.Fatalf("%s start %d step %d: mask moves %v, map moves %v\n%s",
								name, start, step, masks, maps, r.Plan)
						}
						if len(masks) == 0 {
							break
						}
						if applyMove(nodes, masks[rng.Intn(len(masks))], o.opts.Policy, cat, &u) {
							nodes = indexNodes(r.Plan, nodes)
						}
					}
				}
			}
		}
	}
}

// TestWideQueryFallback runs a 65-relation chain, one relation more than a
// relation bitmask holds, through RandomPlan and 200 in-place HY search
// steps. Every step's memoized estimate must equal a fresh by-name bind and
// estimate of the same tree. The start is a QS plan: a random HY
// annotation of 130 operators is almost never well-formed.
func TestWideQueryFallback(t *testing.T) {
	cat, q := chainEnv(65, 5, 0.5)
	if q.MaskSupported() {
		t.Fatal("65 relations should not fit a mask")
	}
	start, err := newOpt(cat, q, plan.QueryShipping, cost.MetricResponseTime, 65).RandomPlan()
	if err != nil {
		t.Fatal(err)
	}
	o := newOpt(cat, q, plan.HybridShipping, cost.MetricResponseTime, 65)
	if got := len(start.Plan.Scans()); got != 65 {
		t.Fatalf("random plan scans %d relations, want 65", got)
	}
	st := newSearch(o, o.opts, rand.New(rand.NewSource(65)))
	st.reset(start.Plan, start.Estimate)
	var u undoRec
	valid := 0
	for i := 0; i < 200; i++ {
		moves := st.ensureMoves()
		if len(moves) == 0 {
			t.Fatal("no moves on a 65-way join")
		}
		changed := applyMove(st.nodes, moves[st.rng.Intn(len(moves))], st.opts.Policy, cat, &u)
		got, ok := st.evaluate()
		_, want, wantOK := o.evaluate(stripRelIDs(st.root))
		if ok != wantOK || got != want {
			t.Fatalf("step %d: search evaluates (%v, %+v), fresh evaluation (%v, %+v)", i, ok, got, wantOK, want)
		}
		if ok {
			valid++
			st.accept(got, changed)
		} else {
			u.revert()
		}
	}
	if valid == 0 || valid == 200 {
		t.Errorf("%d of 200 steps well-formed; want a mix", valid)
	}
}

// stripRelIDs returns a clone of root with every RelID cleared, so the
// binder and the estimator look each relation up by name.
func stripRelIDs(root *plan.Node) *plan.Node {
	c := root.Clone()
	c.Walk(func(n *plan.Node) { n.RelID = 0 })
	return c
}

// TestForeignRelIDs takes plans whose nodes carry relation IDs from one
// search and uses them against another model, as 2-step optimization does
// with a plan compiled against an assumed catalog: a cloned catalog (IDs
// still valid), a catalog registering the relations in reverse order (every
// ID names another relation), and a query listing its relations in reverse
// order (other mask bits). Model.Estimate, plan.Bind and OptimizeFrom must
// give the same bits as for the same plan without IDs.
func TestForeignRelIDs(t *testing.T) {
	cat, q := chainEnv(6, 3, 0.5)
	q.Selects = map[string]float64{"R1": 0.5, "R4": 0.1}
	if err := cat.ReplicateAll(2, 7); err != nil {
		t.Fatal(err)
	}
	src, err := newOpt(cat, q, plan.HybridShipping, cost.MetricResponseTime, 7).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	withIDs := 0
	src.Plan.Walk(func(n *plan.Node) {
		if n.RelID != 0 {
			withIDs++
		}
	})
	if withIDs != 8 { // six scans and two selects
		t.Fatalf("optimized plan carries %d relation IDs, want 8", withIDs)
	}
	// The same plan with every ID pointing at the wrong relation.
	shifted := src.Plan.Clone()
	shifted.Walk(func(n *plan.Node) {
		if n.RelID != 0 {
			n.RelID = n.RelID%6 + 1
		}
	})

	reversedCat := catalog.New(cat.PageSize, cat.NumServers)
	names := cat.Relations()
	for i := len(names) - 1; i >= 0; i-- {
		rel := *cat.MustRelation(names[i])
		if err := reversedCat.AddRelation(rel); err != nil {
			t.Fatal(err)
		}
		if err := reversedCat.SetCachedFraction(rel.Name, cat.CachedFraction(rel.Name)); err != nil {
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
		bare := stripRelIDs(src.Plan)
		wantB, err := plan.Bind(bare, env.cat, catalog.Client)
		if err != nil {
			t.Fatalf("%s: %v", env.name, err)
		}
		want := m.Estimate(bare, wantB)
		wantOpt, err := New(m, DefaultOptions(plan.HybridShipping, cost.MetricResponseTime, 8)).OptimizeFrom(bare)
		if err != nil {
			t.Fatalf("%s: %v", env.name, err)
		}
		for _, p := range []struct {
			name string
			root *plan.Node
		}{{"search IDs", src.Plan}, {"wrong IDs", shifted}} {
			root := p.root.Clone()
			b, err := plan.Bind(root, env.cat, catalog.Client)
			if err != nil {
				t.Fatalf("%s, %s: %v", env.name, p.name, err)
			}
			if got := plan.FormatBound(root, b); got != plan.FormatBound(bare, wantB) {
				t.Errorf("%s, %s: binding\n%s\nwant\n%s", env.name, p.name, got, plan.FormatBound(bare, wantB))
			}
			if got := m.Estimate(root, b); estBits(got) != estBits(want) {
				t.Errorf("%s, %s: estimate %+v, want %+v", env.name, p.name, got, want)
			}
			got, err := New(m, DefaultOptions(plan.HybridShipping, cost.MetricResponseTime, 8)).OptimizeFrom(root)
			if err != nil {
				t.Fatalf("%s, %s: %v", env.name, p.name, err)
			}
			if winner(got) != winner(wantOpt) {
				t.Errorf("%s, %s: OptimizeFrom gives %+v, want %+v", env.name, p.name, winner(got), winner(wantOpt))
			}
		}
	}
}
