package opt

import (
	"fmt"
	"testing"
	"testing/quick"

	"hybridship/internal/catalog"
	"hybridship/internal/cost"
	"hybridship/internal/plan"
	"hybridship/internal/query"
)

// chainEnv builds an n-way chain-join environment over the given number of
// servers: relation Ri lives on server i mod servers, functional joins.
func chainEnv(n, servers int, cached float64) (*catalog.Catalog, *query.Query) {
	cat := catalog.New(4096, servers)
	q := &query.Query{ResultTupleBytes: 100}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("R%d", i)
		if err := cat.AddRelation(catalog.Relation{
			Name: name, Tuples: 10000, TupleBytes: 100, Home: catalog.SiteID(i % servers),
		}); err != nil {
			panic(err)
		}
		if cached > 0 {
			if err := cat.SetCachedFraction(name, cached); err != nil {
				panic(err)
			}
		}
		q.Relations = append(q.Relations, name)
		if i > 0 {
			q.Preds = append(q.Preds, query.Pred{
				A: fmt.Sprintf("R%d", i-1), B: name, Selectivity: 1.0 / 10000,
			})
		}
	}
	if err := q.Validate(); err != nil {
		panic(err)
	}
	return cat, q
}

func newOpt(cat *catalog.Catalog, q *query.Query, pol plan.Policy, metric cost.Metric, seed int64) *Optimizer {
	m := &cost.Model{Params: cost.DefaultParams(), Catalog: cat, Query: q}
	return New(m, DefaultOptions(pol, metric, seed))
}

func TestRandomPlanRespectsPolicy(t *testing.T) {
	cat, q := chainEnv(5, 3, 0)
	for _, pol := range []plan.Policy{plan.DataShipping, plan.QueryShipping, plan.HybridShipping} {
		o := newOpt(cat, q, pol, cost.MetricTotalCost, 1)
		for i := 0; i < 20; i++ {
			r, err := o.RandomPlan()
			if err != nil {
				t.Fatalf("%v: %v", pol, err)
			}
			if err := plan.ValidateFor(r.Plan, pol); err != nil {
				t.Fatalf("%v: random plan outside policy: %v\n%s", pol, err, r.Plan)
			}
			if len(r.Plan.Joins()) != 4 {
				t.Fatalf("%v: expected 4 joins, got %d", pol, len(r.Plan.Joins()))
			}
		}
	}
}

func TestRandomPlanAvoidsCartesianProducts(t *testing.T) {
	cat, q := chainEnv(6, 2, 0)
	o := newOpt(cat, q, plan.HybridShipping, cost.MetricTotalCost, 2)
	for i := 0; i < 50; i++ {
		r, err := o.RandomPlan()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range r.Plan.Joins() {
			if !connectedByName(q, tableSet(j.Left), tableSet(j.Right)) {
				t.Fatalf("Cartesian product in random plan:\n%s", r.Plan)
			}
		}
	}
}

func TestNeighborPreservesTables(t *testing.T) {
	cat, q := chainEnv(6, 3, 0)
	o := newOpt(cat, q, plan.HybridShipping, cost.MetricTotalCost, 3)
	r, err := o.RandomPlan()
	if err != nil {
		t.Fatal(err)
	}
	cur := r.Plan
	for i := 0; i < 500; i++ {
		next, ok := o.neighbor(cur)
		if !ok {
			t.Fatal("no moves available on a 6-way join")
		}
		bt := tableSet(next)
		if len(bt) != 6 {
			t.Fatalf("move lost base tables: %v\n%s", bt, next)
		}
		for _, j := range next.Joins() {
			if !connectedByName(q, tableSet(j.Left), tableSet(j.Right)) {
				t.Fatalf("move introduced Cartesian product:\n%s", next)
			}
		}
		if err := plan.CheckStructure(next); err != nil {
			t.Fatalf("move broke structure: %v", err)
		}
		// Only adopt well-formed neighbors, as the optimizer does.
		if plan.WellFormed(next, cat, catalog.Client) {
			cur = next
		}
	}
}

func TestNeighborDoesNotMutateInput(t *testing.T) {
	cat, q := chainEnv(4, 2, 0)
	o := newOpt(cat, q, plan.HybridShipping, cost.MetricTotalCost, 4)
	r, err := o.RandomPlan()
	if err != nil {
		t.Fatal(err)
	}
	before := r.Plan.String()
	for i := 0; i < 100; i++ {
		o.neighbor(r.Plan)
	}
	if r.Plan.String() != before {
		t.Error("neighbor mutated its input plan")
	}
}

func TestDSPlansStayDS(t *testing.T) {
	cat, q := chainEnv(5, 2, 0)
	o := newOpt(cat, q, plan.DataShipping, cost.MetricResponseTime, 5)
	res, err := o.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.ValidateFor(res.Plan, plan.DataShipping); err != nil {
		t.Fatalf("optimized DS plan outside policy: %v", err)
	}
	// Every operator must be bound to the client.
	for i, site := range res.Binding {
		if site != catalog.Client {
			t.Errorf("node %d bound to %v, want client", i, site)
		}
	}
}

func TestQSPlansStayQS(t *testing.T) {
	cat, q := chainEnv(5, 3, 0)
	o := newOpt(cat, q, plan.QueryShipping, cost.MetricResponseTime, 6)
	res, err := o.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.ValidateFor(res.Plan, plan.QueryShipping); err != nil {
		t.Fatalf("optimized QS plan outside policy: %v", err)
	}
	// No operator other than the display (node 0) may run at the client.
	for i, site := range res.Binding {
		if i > 0 && site == catalog.Client {
			t.Errorf("QS node %d bound to client", i)
		}
	}
}

func TestOptimizationImprovesOnRandom(t *testing.T) {
	cat, q := chainEnv(8, 4, 0)
	o := newOpt(cat, q, plan.HybridShipping, cost.MetricResponseTime, 7)
	rnd, err := o.RandomPlan()
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.ResponseTime > rnd.Estimate.ResponseTime+1e-12 {
		t.Errorf("optimized RT %.4f worse than first random plan %.4f",
			res.Estimate.ResponseTime, rnd.Estimate.ResponseTime)
	}
}

func TestHybridAtLeastMatchesPurePolicies(t *testing.T) {
	// The defining property of hybrid-shipping (§1.3): its search space
	// contains both pure spaces, so its optimized metric must not exceed
	// either pure policy's by more than randomization noise.
	cat, q := chainEnv(4, 2, 0.5)
	for _, metric := range []cost.Metric{cost.MetricPagesSent, cost.MetricResponseTime} {
		ds, err := newOpt(cat, q, plan.DataShipping, metric, 8).Optimize()
		if err != nil {
			t.Fatal(err)
		}
		qs, err := newOpt(cat, q, plan.QueryShipping, metric, 9).Optimize()
		if err != nil {
			t.Fatal(err)
		}
		hy, err := newOpt(cat, q, plan.HybridShipping, metric, 10).Optimize()
		if err != nil {
			t.Fatal(err)
		}
		bestPure := ds.Estimate.Value(metric)
		if v := qs.Estimate.Value(metric); v < bestPure {
			bestPure = v
		}
		if hy.Estimate.Value(metric) > bestPure*1.05+1e-9 {
			t.Errorf("%v: HY %.4f worse than best pure %.4f", metric,
				hy.Estimate.Value(metric), bestPure)
		}
	}
}

func TestFixedJoinOrderKeepsShape(t *testing.T) {
	cat, q := chainEnv(6, 3, 0)
	o := newOpt(cat, q, plan.HybridShipping, cost.MetricResponseTime, 11)
	r, err := o.RandomPlan()
	if err != nil {
		t.Fatal(err)
	}
	shape := joinShape(r.Plan)
	o2 := newOpt(cat, q, plan.HybridShipping, cost.MetricResponseTime, 12)
	o2.opts.FixedJoinOrder = true
	res, err := o2.OptimizeFrom(r.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := joinShape(res.Plan); got != shape {
		t.Errorf("site selection changed the join order:\n got %s\nwant %s", got, shape)
	}
}

// joinShape renders the join-order structure ignoring annotations.
func joinShape(n *plan.Node) string {
	if n == nil {
		return ""
	}
	switch n.Kind {
	case plan.KindScan:
		return n.Table
	case plan.KindSelect, plan.KindDisplay:
		return joinShape(n.Left)
	case plan.KindJoin:
		return "(" + joinShape(n.Left) + "*" + joinShape(n.Right) + ")"
	}
	return "?"
}

func TestDeterministicUnderSeed(t *testing.T) {
	cat, q := chainEnv(6, 3, 0.25)
	a, err := newOpt(cat, q, plan.HybridShipping, cost.MetricResponseTime, 42).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newOpt(cat, q, plan.HybridShipping, cost.MetricResponseTime, 42).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan.String() != b.Plan.String() || a.Estimate != b.Estimate {
		t.Error("same seed produced different optimization results")
	}
}

func TestDisconnectedQueryRejected(t *testing.T) {
	cat := catalog.New(4096, 1)
	cat.AddRelation(catalog.Relation{Name: "A", Tuples: 100, TupleBytes: 100, Home: 0})
	cat.AddRelation(catalog.Relation{Name: "B", Tuples: 100, TupleBytes: 100, Home: 0})
	q := &query.Query{Relations: []string{"A", "B"}, ResultTupleBytes: 100}
	o := newOpt(cat, q, plan.HybridShipping, cost.MetricTotalCost, 13)
	if _, err := o.Optimize(); err == nil {
		t.Error("disconnected join graph accepted")
	}
}

// Property: every neighbor of a valid plan stays inside the policy's
// annotation space.
func TestQuickNeighborsRespectPolicy(t *testing.T) {
	cat, q := chainEnv(5, 3, 0)
	f := func(seed int64, polRaw uint8) bool {
		pol := []plan.Policy{plan.DataShipping, plan.QueryShipping, plan.HybridShipping}[int(polRaw)%3]
		o := newOpt(cat, q, pol, cost.MetricTotalCost, seed)
		r, err := o.RandomPlan()
		if err != nil {
			return false
		}
		cur := r.Plan
		for i := 0; i < 30; i++ {
			next, ok := o.neighbor(cur)
			if !ok {
				return pol == plan.DataShipping // DS can run out of moves
			}
			if err := plan.ValidateFor(next, pol); err != nil {
				return false
			}
			if plan.WellFormed(next, cat, catalog.Client) {
				cur = next
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSearchStepZeroAlloc gates the search's inner loop: once the memo has
// seen the start plan's neighbourhood, a step (move, bind, estimate,
// revert) allocates nothing.
func TestSearchStepZeroAlloc(t *testing.T) {
	st := neighborFixture(t)
	var u undoRec
	for i := 0; i < 5000; i++ {
		neighborStep(st, &u)
	}
	if n := testing.AllocsPerRun(1000, func() { neighborStep(st, &u) }); n != 0 {
		t.Errorf("search step allocates %v per call, want 0", n)
	}
}

// TestEvaluateMissZeroAlloc gates the part of a step the memo cannot
// absorb: binding and estimating a candidate with the search's warm Binder
// and Estimator allocates nothing, whether they redo only what a move
// changed or, for a whole flat plan or a tree, every node.
func TestEvaluateMissZeroAlloc(t *testing.T) {
	st := neighborFixture(t)
	var u undoRec
	for i := 0; i < 100; i++ {
		neighborStep(st, &u)
	}
	step := 0
	if n := testing.AllocsPerRun(1000, func() {
		st.apply(st.moveAt(step%st.moveCount()), &u)
		step++
		st.compute()
		st.revert(&u)
	}); n != 0 {
		t.Errorf("delta bind and estimate allocate %v per call, want 0", n)
	}
	cat := st.o.model.Catalog
	if n := testing.AllocsPerRun(1000, func() {
		if sites, err := st.binder.BindFlat(&st.flat, cat, catalog.Client); err == nil {
			st.estimator.EstimateFlat(&st.flat, sites)
		}
	}); n != 0 {
		t.Errorf("bind and estimate of the whole flat plan allocate %v per call, want 0", n)
	}
	tree := st.flat.Tree()
	if n := testing.AllocsPerRun(1000, func() {
		sites, err := st.binder.Bind(tree, cat, catalog.Client)
		if err != nil {
			t.Fatal(err)
		}
		st.estimator.Estimate(tree, sites)
	}); n != 0 {
		t.Errorf("bind and estimate of a tree allocate %v per call, want 0", n)
	}
}

// neighbor returns a random legal transformation of the plan, or ok=false
// if the plan admits no moves. The returned tree is fresh; the input is not
// modified. It is the one-off counterpart of the in-place searchState
// stepping.
func (o *Optimizer) neighbor(root *plan.Node) (*plan.Node, bool) {
	var f plan.Flat
	if err := f.Reset(root, o.model.Catalog); err != nil {
		return nil, false
	}
	mask := subtreeMasks(&f, o.bits, nil)
	moves := candidateMoves(o.model.Query, o.opts, o.model.Catalog, &f, mask, nil)
	if len(moves) == 0 {
		return nil, false
	}
	o.mu.Lock()
	mv := moves[o.rng.Intn(len(moves))]
	o.mu.Unlock()
	var u undoRec
	applyMove(&f, mask, mv, o.opts.Policy, o.model.Catalog, &u)
	return f.Tree(), true
}
