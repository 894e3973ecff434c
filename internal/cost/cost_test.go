package cost

import (
	"testing"
	"testing/quick"

	"hybridship/internal/catalog"
	"hybridship/internal/plan"
	"hybridship/internal/query"
)

// env builds a 1-server catalog with relations A and B and a 2-way join
// query, the Figure 2/3 setting.
func env(t testing.TB) (*catalog.Catalog, *query.Query) {
	if t != nil {
		t.Helper()
	}
	cat := catalog.New(4096, 1)
	for _, n := range []string{"A", "B"} {
		if err := cat.AddRelation(catalog.Relation{Name: n, Tuples: 10000, TupleBytes: 100, Home: 0}); err != nil {
			t.Fatal(err)
		}
	}
	q := &query.Query{
		Relations:        []string{"A", "B"},
		Preds:            []query.Pred{{A: "A", B: "B", Selectivity: 1.0 / 10000}},
		ResultTupleBytes: 100,
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	return cat, q
}

func annotate(root *plan.Node, pol plan.Policy) {
	root.Walk(func(n *plan.Node) {
		n.Ann = plan.AllowedAnnotations(n.Kind, pol)[0]
	})
}

func estimate(t testing.TB, m *Model, root *plan.Node) Estimate {
	t.Helper()
	b, err := plan.Bind(root, m.Catalog, catalog.Client)
	if err != nil {
		t.Fatal(err)
	}
	return m.Estimate(root, b)
}

func twoWay() *plan.Node {
	return plan.NewDisplay(plan.NewJoin(plan.NewScan("A"), plan.NewScan("B")))
}

func TestQSPagesIndependentOfCaching(t *testing.T) {
	cat, q := env(t)
	m := &Model{Params: DefaultParams(), Catalog: cat, Query: q}
	p := twoWay()
	annotate(p, plan.QueryShipping)
	base := estimate(t, m, p).PagesSent
	if base <= 0 {
		t.Fatalf("QS sends %v pages, want > 0 (result must reach client)", base)
	}
	for _, frac := range []float64{0.25, 0.5, 1.0} {
		cat.SetCachedFraction("A", frac)
		cat.SetCachedFraction("B", frac)
		if got := estimate(t, m, p).PagesSent; got != base {
			t.Errorf("QS pages at %v%% caching = %v, want %v (caching-independent)", frac*100, got, base)
		}
	}
}

func TestDSPagesDecreaseLinearlyWithCaching(t *testing.T) {
	cat, q := env(t)
	m := &Model{Params: DefaultParams(), Catalog: cat, Query: q}
	p := twoWay()
	annotate(p, plan.DataShipping)

	var prev float64 = 1e18
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		cat.SetCachedFraction("A", frac)
		cat.SetCachedFraction("B", frac)
		got := estimate(t, m, p).PagesSent
		if got >= prev && frac > 0 {
			t.Errorf("DS pages at %.0f%% = %v, want strictly below %v", frac*100, got, prev)
		}
		prev = got
	}
	// At 100% caching DS ships nothing.
	if prev != 0 {
		t.Errorf("DS pages at 100%% caching = %v, want 0", prev)
	}
}

func TestDSvsQSCommCrossover(t *testing.T) {
	// Paper §4.2.1: with functional joins the crossover is at 50% caching —
	// DS ships twice the result size at 0% and zero at 100%.
	cat, q := env(t)
	m := &Model{Params: DefaultParams(), Catalog: cat, Query: q}
	ds := twoWay()
	annotate(ds, plan.DataShipping)
	qs := twoWay()
	annotate(qs, plan.QueryShipping)

	cat.SetCachedFraction("A", 0)
	cat.SetCachedFraction("B", 0)
	ds0 := estimate(t, m, ds).PagesSent
	qs0 := estimate(t, m, qs).PagesSent
	if ds0 <= qs0 {
		t.Errorf("at 0%% caching DS (%v) should ship more than QS (%v)", ds0, qs0)
	}
	if ratio := ds0 / qs0; ratio < 1.9 || ratio > 2.1 {
		t.Errorf("DS/QS page ratio at 0%% = %.2f, want ~2 for functional joins", ratio)
	}

	cat.SetCachedFraction("A", 1)
	cat.SetCachedFraction("B", 1)
	if ds100 := estimate(t, m, ds).PagesSent; ds100 >= qs0 {
		t.Errorf("at 100%% caching DS (%v) should ship less than QS (%v)", ds100, qs0)
	}
}

func TestMinAllocCostsMoreThanMaxAlloc(t *testing.T) {
	cat, q := env(t)
	pMin := DefaultParams()
	pMin.MaxAlloc = false
	pMax := DefaultParams()
	pMax.MaxAlloc = true
	plan1 := twoWay()
	annotate(plan1, plan.QueryShipping)

	mMin := &Model{Params: pMin, Catalog: cat, Query: q}
	mMax := &Model{Params: pMax, Catalog: cat, Query: q}
	eMin, eMax := estimate(t, mMin, plan1), estimate(t, mMax, plan1)
	if eMin.TotalCost <= eMax.TotalCost {
		t.Errorf("min-alloc total %v should exceed max-alloc %v", eMin.TotalCost, eMax.TotalCost)
	}
	if eMin.ResponseTime <= eMax.ResponseTime {
		t.Errorf("min-alloc RT %v should exceed max-alloc %v", eMin.ResponseTime, eMax.ResponseTime)
	}
	if eMin.PagesSent != eMax.PagesSent {
		t.Errorf("allocation must not change communication: %v vs %v", eMin.PagesSent, eMax.PagesSent)
	}
}

func TestServerLoadInflatesQS(t *testing.T) {
	cat, q := env(t)
	p := DefaultParams()
	m := &Model{Params: p, Catalog: cat, Query: q}
	qs := twoWay()
	annotate(qs, plan.QueryShipping)
	unloaded := estimate(t, m, qs).ResponseTime

	loaded := p
	loaded.ServerDiskUtil = map[catalog.SiteID]float64{0: 0.76}
	m2 := &Model{Params: loaded, Catalog: cat, Query: q}
	if got := estimate(t, m2, qs).ResponseTime; got < unloaded*2 {
		t.Errorf("76%% server disk load: QS RT %v, want >= 2x unloaded %v", got, unloaded)
	}

	// DS with full caching avoids the server disk entirely, so load must
	// leave it unchanged.
	cat.SetCachedFraction("A", 1)
	cat.SetCachedFraction("B", 1)
	ds := twoWay()
	annotate(ds, plan.DataShipping)
	a := estimate(t, m, ds).ResponseTime
	b := estimate(t, m2, ds).ResponseTime
	if a != b {
		t.Errorf("fully-cached DS RT changed under server load: %v vs %v", a, b)
	}
}

// TestSetServerLoad pins the §4.2.2 rule: a server's disk utilization is
// its external read rate times RandPageTime, capped at 0.95.
func TestSetServerLoad(t *testing.T) {
	p := DefaultParams()
	p.SetServerLoad(nil)
	if p.ServerDiskUtil != nil {
		t.Fatalf("no load set utilizations %v", p.ServerDiskUtil)
	}
	p.SetServerLoad(map[catalog.SiteID]float64{0: 40, 2: 100})
	want := map[catalog.SiteID]float64{0: 40 * p.RandPageTime, 2: 0.95}
	if len(p.ServerDiskUtil) != len(want) {
		t.Fatalf("utilizations %v, want %v", p.ServerDiskUtil, want)
	}
	for s, u := range want {
		if p.ServerDiskUtil[s] != u {
			t.Errorf("server %d: utilization %v, want %v", s, p.ServerDiskUtil[s], u)
		}
	}
}

func TestSelectReducesDownstreamCost(t *testing.T) {
	cat, _ := env(t)
	q := &query.Query{
		Relations:        []string{"A", "B"},
		Preds:            []query.Pred{{A: "A", B: "B", Selectivity: 1.0 / 10000}},
		ResultTupleBytes: 100,
		Selects:          map[string]float64{"A": 0.1},
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	m := &Model{Params: DefaultParams(), Catalog: cat, Query: q}
	// select above scan A, placed at the server (producer), join at server.
	sel := plan.NewSelect(plan.NewScan("A"), "A")
	j := plan.NewJoin(sel, plan.NewScan("B"))
	j.Ann = plan.AnnInner
	root := plan.NewDisplay(j)
	withSel := estimate(t, m, root)

	noSelQ := &query.Query{Relations: q.Relations, Preds: q.Preds, ResultTupleBytes: 100}
	m2 := &Model{Params: DefaultParams(), Catalog: cat, Query: noSelQ}
	j2 := plan.NewJoin(plan.NewScan("A"), plan.NewScan("B"))
	j2.Ann = plan.AnnInner
	root2 := plan.NewDisplay(j2)
	noSel := estimate(t, m2, root2)

	if withSel.PagesSent >= noSel.PagesSent {
		t.Errorf("10%% select should shrink the shipped result: %v vs %v", withSel.PagesSent, noSel.PagesSent)
	}
}

// Property: estimates are non-negative and response time never exceeds total
// cost (response time exploits parallelism; cost is the serial sum).
func TestQuickResponseTimeLEQTotalCost(t *testing.T) {
	cat, q := env(nil)
	f := func(fracRaw, cacheRaw uint8, maxAlloc bool, useDS bool) bool {
		frac := float64(fracRaw%101) / 100
		cat.SetCachedFraction("A", frac)
		cat.SetCachedFraction("B", float64(cacheRaw%101)/100)
		params := DefaultParams()
		params.MaxAlloc = maxAlloc
		m := &Model{Params: params, Catalog: cat, Query: q}
		root := twoWay()
		if useDS {
			annotate(root, plan.DataShipping)
		} else {
			annotate(root, plan.QueryShipping)
		}
		b, err := plan.Bind(root, cat, catalog.Client)
		if err != nil {
			return false
		}
		e := m.Estimate(root, b)
		return e.TotalCost >= 0 && e.PagesSent >= 0 && e.ResponseTime >= 0 &&
			e.ResponseTime <= e.TotalCost+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEstimatorWarmZeroAlloc gates the optimizer's estimate hot path: once
// an Estimator has evaluated a plan, evaluating it again allocates nothing.
// The plan mixes a faulting client scan, a selection, server joins and a
// loaded server disk, so every accumulator path runs.
func TestEstimatorWarmZeroAlloc(t *testing.T) {
	cat, _ := env(t)
	if err := cat.SetCachedFraction("A", 0.5); err != nil {
		t.Fatal(err)
	}
	q := &query.Query{
		Relations:        []string{"A", "B"},
		Preds:            []query.Pred{{A: "A", B: "B", Selectivity: 1.0 / 10000}},
		ResultTupleBytes: 100,
		Selects:          map[string]float64{"A": 0.1},
	}
	p := DefaultParams()
	p.ServerDiskUtil = map[catalog.SiteID]float64{0: 0.5}
	m := &Model{Params: p, Catalog: cat, Query: q}
	scanA := plan.NewScan("A")
	scanA.Ann = plan.AnnClient
	sel := plan.NewSelect(scanA, "A")
	sel.Ann = plan.AnnConsumer
	j := plan.NewJoin(sel, plan.NewScan("B"))
	j.Ann = plan.AnnOuter
	root := plan.NewDisplay(j)

	var bd plan.Binder
	sites, err := bd.Bind(root, cat, catalog.Client)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEstimator(m)
	want := e.Estimate(root, sites)
	if n := testing.AllocsPerRun(1000, func() {
		if got := e.Estimate(root, sites); got != want {
			t.Fatalf("repeated estimate %+v, first %+v", got, want)
		}
	}); n != 0 {
		t.Errorf("warm Estimate allocates %v per call, want 0", n)
	}
	if got := estimate(t, m, root); got != want {
		t.Errorf("Model.Estimate %+v, Estimator %+v", got, want)
	}
}

// TestEstimateBindingBeyondCatalog covers a hand-made Binding that places an
// operator on a server the catalog does not list: the estimator extends its
// per-site tables, including that server's disk load.
func TestEstimateBindingBeyondCatalog(t *testing.T) {
	cat, q := env(t)
	root := twoWay()
	annotate(root, plan.QueryShipping)
	b, err := plan.Bind(root, cat, catalog.Client)
	if err != nil {
		t.Fatal(err)
	}
	b[1] = 3 // the join
	idle := &Model{Params: DefaultParams(), Catalog: cat, Query: q}
	p := DefaultParams()
	p.ServerDiskUtil = map[catalog.SiteID]float64{3: 0.5}
	loaded := &Model{Params: p, Catalog: cat, Query: q}
	e0, e1 := idle.Estimate(root, b), loaded.Estimate(root, b)
	if e0.PagesSent <= 0 || e1.TotalCost <= e0.TotalCost {
		t.Errorf("join on server 3: idle %+v, loaded %+v; want pages shipped and a dearer loaded disk", e0, e1)
	}
}
