package opt

import (
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/cost"
	"hybridship/internal/plan"
	"hybridship/internal/query"
)

func newDP(cat *catalog.Catalog, q *query.Query, pol plan.Policy, metric cost.Metric, leftDeep bool) *DP {
	m := &cost.Model{Params: cost.DefaultParams(), Catalog: cat, Query: q}
	return NewDP(m, DPOptions{Policy: pol, Metric: metric, LeftDeepOnly: leftDeep})
}

func TestDPBeatsOrMatchesRandomizedOnTotalCost(t *testing.T) {
	// Dynamic programming is exact for the separable total-cost metric; the
	// randomized optimizer must never find anything better.
	cat, q := chainEnv(5, 3, 0.25)
	dp, err := newDP(cat, q, plan.HybridShipping, cost.MetricTotalCost, false).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		r, err := newOpt(cat, q, plan.HybridShipping, cost.MetricTotalCost, seed).Optimize()
		if err != nil {
			t.Fatal(err)
		}
		if r.Estimate.TotalCost < dp.Estimate.TotalCost-1e-9 {
			t.Errorf("randomized (seed %d) found %.4f, below DP's 'optimal' %.4f\n%s",
				seed, r.Estimate.TotalCost, dp.Estimate.TotalCost, r.Plan)
		}
	}
}

func TestDPRespectsPolicies(t *testing.T) {
	cat, q := chainEnv(4, 2, 0)
	for _, pol := range []plan.Policy{plan.DataShipping, plan.QueryShipping, plan.HybridShipping} {
		res, err := newDP(cat, q, pol, cost.MetricTotalCost, false).Optimize()
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if err := plan.ValidateFor(res.Plan, pol); err != nil {
			t.Errorf("%v: DP plan outside policy: %v\n%s", pol, err, res.Plan)
		}
		if got := len(res.Plan.Joins()); got != 3 {
			t.Errorf("%v: joins = %d, want 3", pol, got)
		}
	}
}

func TestDPLeftDeepOnly(t *testing.T) {
	cat, q := chainEnv(5, 3, 0)
	res, err := newDP(cat, q, plan.HybridShipping, cost.MetricTotalCost, true).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Plan.Joins() {
		if j.Right.Kind == plan.KindJoin {
			t.Fatalf("left-deep DP produced a bushy tree:\n%s", res.Plan)
		}
	}
}

func TestDPAvoidsCartesianProducts(t *testing.T) {
	cat, q := chainEnv(5, 2, 0)
	res, err := newDP(cat, q, plan.HybridShipping, cost.MetricTotalCost, false).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Plan.Joins() {
		if !connectedByName(q, tableSet(j.Left), tableSet(j.Right)) {
			t.Fatalf("DP plan contains a Cartesian product:\n%s", res.Plan)
		}
	}
}

func TestDPDeterministic(t *testing.T) {
	cat, q := chainEnv(5, 3, 0.5)
	a, err := newDP(cat, q, plan.HybridShipping, cost.MetricResponseTime, false).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newDP(cat, q, plan.HybridShipping, cost.MetricResponseTime, false).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan.String() != b.Plan.String() || a.Estimate != b.Estimate {
		t.Error("DP produced different results on identical input")
	}
}

func TestDPErrors(t *testing.T) {
	cat := catalog.New(4096, 1)
	cat.AddRelation(catalog.Relation{Name: "A", Tuples: 100, TupleBytes: 100, Home: 0})
	cat.AddRelation(catalog.Relation{Name: "B", Tuples: 100, TupleBytes: 100, Home: 0})
	disconnected := &query.Query{Relations: []string{"A", "B"}, ResultTupleBytes: 100}
	if _, err := newDP(cat, disconnected, plan.HybridShipping, cost.MetricTotalCost, false).Optimize(); err == nil {
		t.Error("disconnected query accepted")
	}

	cat2, q := chainEnv(dpMaxRelations+1, 2, 0)
	dp := NewDP(&cost.Model{Params: cost.DefaultParams(), Catalog: cat2, Query: q},
		DPOptions{Policy: plan.HybridShipping})
	if _, err := dp.Optimize(); err == nil {
		t.Error("query above the DP relation limit accepted")
	}
}

func TestDPSelectionsIncluded(t *testing.T) {
	cat, q := chainEnv(3, 2, 0)
	q.Selects = map[string]float64{"R0": 0.1}
	res, err := newDP(cat, q, plan.HybridShipping, cost.MetricTotalCost, false).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	res.Plan.Walk(func(n *plan.Node) {
		if n.Kind == plan.KindSelect && n.Rel == "R0" {
			found = true
		}
	})
	if !found {
		t.Errorf("DP plan lost the selection on R0:\n%s", res.Plan)
	}
}
