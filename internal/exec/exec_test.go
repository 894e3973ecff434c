package exec

import (
	"math"
	"strings"
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/plan"
	"hybridship/internal/query"
	"hybridship/internal/workload"
)

// chainConfig builds a ready-to-run config for an n-way chain over the given
// number of servers.
func chainConfig(t testing.TB, n, servers int, sel workload.Selectivity, maxAlloc bool) Config {
	t.Helper()
	cat, err := workload.BuildCatalog(4096, servers, workload.PlaceRoundRobin(n, servers))
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.MaxAlloc = maxAlloc
	return Config{
		Params:  params,
		Catalog: cat,
		Query:   workload.ChainQuery(n, sel),
		Next:    workload.Next(sel),
		Seed:    1,
	}
}

// annotate assigns the first allowed annotation per Table 1 (DS: all client;
// QS: scans primary, joins inner).
func annotate(root *plan.Node, pol plan.Policy) *plan.Node {
	root.Walk(func(n *plan.Node) {
		n.Ann = plan.AllowedAnnotations(n.Kind, pol)[0]
	})
	return root
}

// leftDeepChain builds display(((R0 ⋈ R1) ⋈ R2) ⋈ ...).
func leftDeepChain(n int) *plan.Node {
	tree := plan.NewScan(workload.RelName(0))
	for i := 1; i < n; i++ {
		tree = plan.NewJoin(tree, plan.NewScan(workload.RelName(i)))
	}
	return plan.NewDisplay(tree)
}

// TestWideQueryRejected checks that Run returns Validate's error for a chain
// one relation wider than a relation mask, rather than panicking.
func TestWideQueryRejected(t *testing.T) {
	n := query.MaxRelations + 1
	cfg := chainConfig(t, n, 4, workload.Moderate, true)
	want := cfg.Query.Validate()
	if want == nil {
		t.Fatalf("Validate accepted a %d-relation query", n)
	}
	if _, err := Run(cfg, annotate(leftDeepChain(n), plan.QueryShipping)); err == nil || err.Error() != want.Error() {
		t.Errorf("Run: error %v, want %v", err, want)
	}
}

func TestQueryShipping2WayCardinality(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	res, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping))
	if err != nil {
		t.Fatal(err)
	}
	if want := workload.ExpectedResult(2, workload.Moderate); res.ResultTuples != want {
		t.Errorf("result tuples = %d, want %d", res.ResultTuples, want)
	}
	// QS ships exactly the result: 10000 tuples at 40/page = 250 pages.
	if res.PagesSent != 250 {
		t.Errorf("QS pages sent = %d, want 250", res.PagesSent)
	}
	if res.ResponseTime <= 0 {
		t.Error("response time not positive")
	}
}

func TestDataShippingFaultsEverything(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	res, err := Run(cfg, annotate(leftDeepChain(2), plan.DataShipping))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(500); res.PagesSent != want { // 2 relations x 250 pages
		t.Errorf("DS pages sent = %d, want %d", res.PagesSent, want)
	}
	if want := workload.ExpectedResult(2, workload.Moderate); res.ResultTuples != want {
		t.Errorf("result tuples = %d, want %d", res.ResultTuples, want)
	}
	// No client disk I/O: nothing is cached, and with max allocation the
	// join does not spill.
	if st := res.DiskStats[catalog.Client]; st.Reads+st.Writes != 0 {
		t.Errorf("client disk did %d reads / %d writes, want none", st.Reads, st.Writes)
	}
}

func TestDataShippingUsesCache(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	if err := workload.CacheAllFraction(cfg.Catalog, 0.5); err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, annotate(leftDeepChain(2), plan.DataShipping))
	if err != nil {
		t.Fatal(err)
	}
	// Half of each 250-page relation is cached: 125 pages each, so
	// 2*125 = 250 pages faulted.
	if want := int64(250); res.PagesSent != want {
		t.Errorf("DS pages sent at 50%% cache = %d, want %d", res.PagesSent, want)
	}
	if st := res.DiskStats[catalog.Client]; st.Reads != 250 {
		t.Errorf("client disk reads = %d, want 250 (cached pages)", st.Reads)
	}
	if want := workload.ExpectedResult(2, workload.Moderate); res.ResultTuples != want {
		t.Errorf("result tuples = %d, want %d", res.ResultTuples, want)
	}
}

func TestFullyCachedDSSendsNothing(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	if err := workload.CacheAllFraction(cfg.Catalog, 1.0); err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, annotate(leftDeepChain(2), plan.DataShipping))
	if err != nil {
		t.Fatal(err)
	}
	if res.PagesSent != 0 {
		t.Errorf("fully cached DS sent %d pages, want 0", res.PagesSent)
	}
	if want := workload.ExpectedResult(2, workload.Moderate); res.ResultTuples != want {
		t.Errorf("result tuples = %d, want %d", res.ResultTuples, want)
	}
}

func TestHiSelCardinalities(t *testing.T) {
	for n := 2; n <= 6; n++ {
		cfg := chainConfig(t, n, 1, workload.HiSel, true)
		res, err := Run(cfg, annotate(leftDeepChain(n), plan.QueryShipping))
		if err != nil {
			t.Fatal(err)
		}
		if want := workload.ExpectedResult(n, workload.HiSel); res.ResultTuples != want {
			t.Errorf("%d-way HiSel result = %d, want %d", n, res.ResultTuples, want)
		}
	}
}

func TestModerate10WayCardinality(t *testing.T) {
	cfg := chainConfig(t, 10, 4, workload.Moderate, true)
	res, err := Run(cfg, annotate(leftDeepChain(10), plan.QueryShipping))
	if err != nil {
		t.Fatal(err)
	}
	if want := workload.ExpectedResult(10, workload.Moderate); res.ResultTuples != want {
		t.Errorf("10-way result = %d, want %d", res.ResultTuples, want)
	}
}

func TestBushyPlanSameResult(t *testing.T) {
	// ((R0⋈R1) ⋈ (R2⋈R3)) must produce the same cardinality as the
	// left-deep order.
	cfg := chainConfig(t, 4, 2, workload.Moderate, true)
	left := plan.NewJoin(plan.NewScan("R0"), plan.NewScan("R1"))
	right := plan.NewJoin(plan.NewScan("R2"), plan.NewScan("R3"))
	root := plan.NewDisplay(plan.NewJoin(left, right))
	res, err := Run(cfg, annotate(root, plan.QueryShipping))
	if err != nil {
		t.Fatal(err)
	}
	if want := workload.ExpectedResult(4, workload.Moderate); res.ResultTuples != want {
		t.Errorf("bushy result = %d, want %d", res.ResultTuples, want)
	}
}

func TestMinAllocSpillsToDisk(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, false)
	res, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping))
	if err != nil {
		t.Fatal(err)
	}
	st := res.DiskStats[catalog.SiteID(0)]
	if st.Writes == 0 {
		t.Error("min allocation join did not spill partitions to disk")
	}
	if want := workload.ExpectedResult(2, workload.Moderate); res.ResultTuples != want {
		t.Errorf("result tuples = %d, want %d", res.ResultTuples, want)
	}

	// Max allocation must not write temp data and must be faster.
	cfgMax := chainConfig(t, 2, 1, workload.Moderate, true)
	resMax, err := Run(cfgMax, annotate(leftDeepChain(2), plan.QueryShipping))
	if err != nil {
		t.Fatal(err)
	}
	if stMax := resMax.DiskStats[catalog.SiteID(0)]; stMax.Writes != 0 {
		t.Errorf("max allocation join wrote %d temp pages", stMax.Writes)
	}
	if resMax.ResponseTime >= res.ResponseTime {
		t.Errorf("max alloc RT %.3f should beat min alloc %.3f",
			resMax.ResponseTime, res.ResponseTime)
	}
}

func TestQSInterferenceMinAlloc(t *testing.T) {
	// §4.2.2: with minimum allocation, QS executes scan and join I/O on the
	// same disk and suffers; DS (scans faulted from the server, join at the
	// client) exploits disk parallelism. With no caching DS must win.
	cfgQS := chainConfig(t, 2, 1, workload.Moderate, false)
	qs, err := Run(cfgQS, annotate(leftDeepChain(2), plan.QueryShipping))
	if err != nil {
		t.Fatal(err)
	}
	cfgDS := chainConfig(t, 2, 1, workload.Moderate, false)
	ds, err := Run(cfgDS, annotate(leftDeepChain(2), plan.DataShipping))
	if err != nil {
		t.Fatal(err)
	}
	if ds.ResponseTime >= qs.ResponseTime {
		t.Errorf("min alloc, no cache: DS RT %.3f should beat QS RT %.3f (disk interference)",
			ds.ResponseTime, qs.ResponseTime)
	}
}

func TestServerLoadSlowsQS(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, false)
	base, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping))
	if err != nil {
		t.Fatal(err)
	}
	cfgLoaded := chainConfig(t, 2, 1, workload.Moderate, false)
	cfgLoaded.ServerLoad = map[catalog.SiteID]float64{0: 60}
	loaded, err := Run(cfgLoaded, annotate(leftDeepChain(2), plan.QueryShipping))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ResponseTime < base.ResponseTime*1.5 {
		t.Errorf("60 req/s load: QS RT %.2f, want >= 1.5x unloaded %.2f",
			loaded.ResponseTime, base.ResponseTime)
	}
}

func TestSelectionFiltersTuples(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	cfg.Query.Selects = map[string]float64{"R0": 0.1}
	cfg.Pass = func(rel string, id int64) bool { return rel != "R0" || id < 1000 }

	sel := plan.NewSelect(plan.NewScan("R0"), "R0")
	root := plan.NewDisplay(plan.NewJoin(sel, plan.NewScan("R1")))
	res, err := Run(cfg, annotate(root, plan.QueryShipping))
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultTuples != 1000 {
		t.Errorf("selected join result = %d, want 1000", res.ResultTuples)
	}
}

func TestHybridPlanMixedSites(t *testing.T) {
	// Scans at servers, join at the client: the classic hybrid plan.
	cfg := chainConfig(t, 2, 2, workload.Moderate, false)
	j := plan.NewJoin(plan.NewScan("R0"), plan.NewScan("R1"))
	j.Ann = plan.AnnConsumer // at client via display
	root := plan.NewDisplay(j)
	res, err := Run(cfg, root)
	if err != nil {
		t.Fatal(err)
	}
	if want := workload.ExpectedResult(2, workload.Moderate); res.ResultTuples != want {
		t.Errorf("result = %d, want %d", res.ResultTuples, want)
	}
	// Both relations cross the wire (500 pages), but not the result.
	if res.PagesSent != 500 {
		t.Errorf("pages sent = %d, want 500", res.PagesSent)
	}
	// The join spills at the client.
	if st := res.DiskStats[catalog.Client]; st.Writes == 0 {
		t.Error("client-side min-alloc join did not use the client disk for temp")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		cfg := chainConfig(t, 4, 2, workload.Moderate, false)
		cfg.ServerLoad = map[catalog.SiteID]float64{0: 40}
		res, err := Run(cfg, annotate(leftDeepChain(4), plan.QueryShipping))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ResponseTime != b.ResponseTime || a.PagesSent != b.PagesSent || a.ResultTuples != b.ResultTuples {
		t.Errorf("identical configs diverged: %+v vs %+v", a, b)
	}
}

func TestPipelineOverlapBeatsSerial(t *testing.T) {
	// The remote scan ships pages while the client processes them; response
	// time must be below the sum of scan time and ship time computed
	// serially. A weak but real check of pipelined parallelism: the total
	// must at least be below QS scan + full-result ship + DS-style faulting.
	cfg := chainConfig(t, 2, 2, workload.Moderate, true)
	j := plan.NewJoin(plan.NewScan("R0"), plan.NewScan("R1"))
	j.Ann = plan.AnnInner // join at server 0; R1 streams from server 1
	root := plan.NewDisplay(j)
	res, err := Run(cfg, root)
	if err != nil {
		t.Fatal(err)
	}
	// Serial lower-bound violation check: scanning two relations of 245
	// pages at ~3.5 ms/page serially is ~1.7s; with two disks in parallel
	// plus pipelining, the query must finish well under the serial sum of
	// scans + shipping (~2.6s).
	if res.ResponseTime > 2.6 {
		t.Errorf("RT %.3f suggests no overlap between scan, ship, join", res.ResponseTime)
	}
}

func TestRunMultiConcurrentQueries(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, false)
	root := annotate(leftDeepChain(2), plan.QueryShipping)

	solo, err := Run(cfg, root)
	if err != nil {
		t.Fatal(err)
	}

	// Two identical queries submitted together contend for the same server
	// disk: each must take longer than a solo run, and both must still be
	// correct.
	cfg2 := chainConfig(t, 2, 1, workload.Moderate, false)
	multi, err := RunMulti(cfg2, []QueryRun{
		{Plan: annotate(leftDeepChain(2), plan.QueryShipping)},
		{Plan: annotate(leftDeepChain(2), plan.QueryShipping)},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := workload.ExpectedResult(2, workload.Moderate)
	for i, qr := range multi.PerQuery {
		if qr.ResultTuples != want {
			t.Errorf("query %d: result = %d, want %d", i, qr.ResultTuples, want)
		}
		if qr.ResponseTime <= solo.ResponseTime {
			t.Errorf("query %d: concurrent RT %.2f should exceed solo %.2f",
				i, qr.ResponseTime, solo.ResponseTime)
		}
	}
	// Both results cross the wire.
	if multi.PagesSent != 2*solo.PagesSent {
		t.Errorf("pages sent = %d, want %d", multi.PagesSent, 2*solo.PagesSent)
	}
}

func TestRunMultiStaggeredStarts(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	multi, err := RunMulti(cfg, []QueryRun{
		{Plan: annotate(leftDeepChain(2), plan.QueryShipping), Start: 0},
		{Plan: annotate(leftDeepChain(2), plan.QueryShipping), Start: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The second query starts after the first finished: no contention, so
	// both response times are close to a solo run's.
	a, b := multi.PerQuery[0].ResponseTime, multi.PerQuery[1].ResponseTime
	if diff := a - b; diff > 0.5 || diff < -0.5 {
		t.Errorf("staggered queries should not interfere: %.2f vs %.2f", a, b)
	}
	if multi.TotalElapsed < 100 {
		t.Errorf("elapsed %.1f should include the second query's delayed start", multi.TotalElapsed)
	}
}

func TestRunMultiValidation(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	if _, err := RunMulti(cfg, nil); err == nil {
		t.Error("empty query list accepted")
	}
	// A start that is not finite and >= 0 is rejected: NaN would run at
	// time 0, and +Inf would report a NaN response time.
	for _, start := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := RunMulti(cfg, []QueryRun{
			{Plan: annotate(leftDeepChain(2), plan.QueryShipping), Start: start},
		}); err == nil || !strings.Contains(err.Error(), "want a finite time >= 0") {
			t.Errorf("start %v: got error %v, want a rejected start", start, err)
		}
	}
}
