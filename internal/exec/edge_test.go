package exec

import (
	"strings"
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/plan"
	"hybridship/internal/query"
	"hybridship/internal/sim"
	"hybridship/internal/workload"
)

// tinyConfig builds a config with custom cardinalities for edge cases.
func tinyConfig(t testing.TB, tuplesA, tuplesB int) Config {
	t.Helper()
	cat := catalog.New(4096, 1)
	for i, n := range []int{tuplesA, tuplesB} {
		if err := cat.AddRelation(catalog.Relation{
			Name: workload.RelName(i), Tuples: n, TupleBytes: 100, Home: 0,
		}); err != nil {
			t.Fatal(err)
		}
	}
	q := &query.Query{
		Relations:        []string{"R0", "R1"},
		Preds:            []query.Pred{{A: "R0", B: "R1", Selectivity: 1e-4}},
		ResultTupleBytes: 100,
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	return Config{
		Params: params, Catalog: cat, Query: q,
		Next: func(_ string, id int64) int64 { return id },
	}
}

func TestEmptyRelationJoin(t *testing.T) {
	for _, pol := range []plan.Policy{plan.DataShipping, plan.QueryShipping} {
		cfg := tinyConfig(t, 0, 10000)
		res, err := Run(cfg, annotate(leftDeepChain(2), pol))
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.ResultTuples != 0 {
			t.Errorf("%v: empty ⋈ full = %d tuples, want 0", pol, res.ResultTuples)
		}
	}
}

func TestBothEmpty(t *testing.T) {
	cfg := tinyConfig(t, 0, 0)
	res, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping))
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultTuples != 0 || res.PagesSent != 0 {
		t.Errorf("empty join produced %d tuples, %d pages", res.ResultTuples, res.PagesSent)
	}
}

func TestSingleTupleRelations(t *testing.T) {
	cfg := tinyConfig(t, 1, 1)
	res, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping))
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultTuples != 1 {
		t.Errorf("1x1 functional join = %d tuples, want 1", res.ResultTuples)
	}
	// One result page crosses the wire.
	if res.PagesSent != 1 {
		t.Errorf("pages sent = %d, want 1", res.PagesSent)
	}
}

func TestAsymmetricSizes(t *testing.T) {
	// 100-tuple inner against 10000-tuple outer: matches only the first 100.
	cfg := tinyConfig(t, 100, 10000)
	res, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping))
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultTuples != 100 {
		t.Errorf("asymmetric join = %d tuples, want 100", res.ResultTuples)
	}
}

func TestRunRejectsBadPlans(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)

	// Root must be a display.
	j := plan.NewJoin(plan.NewScan("R0"), plan.NewScan("R1"))
	if _, err := Run(cfg, j); err == nil {
		t.Error("plan without display root accepted")
	}

	// Unknown relation fails at binding.
	bad := plan.NewDisplay(plan.NewScan("ZZZ"))
	if _, err := Run(cfg, bad); err == nil {
		t.Error("plan over unknown relation accepted")
	}

	// Ill-formed annotation cycle fails at binding.
	cyc := plan.NewJoin(plan.NewScan("R0"), plan.NewScan("R1"))
	cyc.Ann = plan.AnnConsumer
	sel := plan.NewSelect(cyc, "R0")
	sel.Ann = plan.AnnProducer
	if _, err := Run(cfg, plan.NewDisplay(sel)); err == nil {
		t.Error("ill-formed plan accepted")
	}
}

func TestRunBoundRejectsBadBindings(t *testing.T) {
	cfg := chainConfig(t, 2, 2, workload.Moderate, true)
	root := annotate(leftDeepChain(2), plan.QueryShipping)
	good, err := plan.Bind(root, cfg.Catalog, catalog.Client)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(f func(b plan.Binding) plan.Binding) plan.Binding {
		return f(append(plan.Binding(nil), good...))
	}
	// Each case runs on a fresh shared kernel, which a rejected run must
	// leave empty: the plan is bound before the engine spawns its disk arms
	// or load clocks. A multi case runs RunMulti on the good plan and then
	// root, so it is the second plan that fails to bind.
	for _, tc := range []struct {
		name  string
		root  *plan.Node
		b     plan.Binding
		want  string
		multi bool
	}{
		{"empty binding", root, plan.Binding{}, "missing from binding", false},
		{"binding one site short", root, good[:len(good)-1], "missing from binding", false},
		{"binding one site long", root, edit(func(b plan.Binding) plan.Binding { return append(b, catalog.Client) }), "binding has 5 sites for a plan of 4 nodes", false},
		{"out-of-range site", root, edit(func(b plan.Binding) plan.Binding { b[1] = 9; return b }), "nonexistent site", false},
		// The scan of R0 (node 2) at server 1, which holds no copy of it.
		{"scan away from its data", root, edit(func(b plan.Binding) plan.Binding { b[2] = 1; return b }), "holds no copy", false},
		{"scan of an unknown relation", plan.NewDisplay(plan.NewScan("ZZZ")), plan.Binding{catalog.Client, catalog.Client}, `unknown relation "ZZZ"`, false},
		{"root not a display", root.Left, good[1:], "root must be display", false},
		{"multi: second plan of an unknown relation", plan.NewDisplay(plan.NewScan("ZZZ")), nil, `query 1: plan: scan of unknown relation "ZZZ"`, true},
		{"multi: second root not a display", root.Left, nil, "query 1: plan: root must be display", true},
	} {
		kernel := sim.New()
		cfg.Kernel = kernel
		var err error
		if tc.multi {
			_, err = RunMulti(cfg, []QueryRun{{Plan: root}, {Plan: tc.root}})
		} else {
			_, err = RunBound(cfg, tc.root, tc.b)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one containing %q", tc.name, err, tc.want)
		}
		// Tasks such as disk arms do not keep Run going on their own, so a
		// probe process makes it dispatch whatever the run left scheduled.
		kernel.Spawn("probe", func(*sim.Proc) {})
		kernel.Run()
		if n := kernel.Dispatched(); n != 1 {
			t.Errorf("%s: the rejected run left %d dispatches on the kernel, want none", tc.name, n-1)
		}
	}
}

func TestRunBoundFrozenJoinSite(t *testing.T) {
	// Freeze the join at server 1 even though both relations live on
	// server 0: both inputs must cross to server 1, then the result to the
	// client.
	cfg := chainConfig(t, 2, 2, workload.Moderate, true)
	root := annotate(leftDeepChain(2), plan.QueryShipping)
	b, err := plan.Bind(root, cfg.Catalog, catalog.Client)
	if err != nil {
		t.Fatal(err)
	}
	b[1] = catalog.SiteID(1) // the join; scans stay at their homes
	res, err := RunBound(cfg, root, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := workload.ExpectedResult(2, workload.Moderate); res.ResultTuples != want {
		t.Errorf("result = %d, want %d", res.ResultTuples, want)
	}
	// R0 crosses (250) + result to client (250); R1 is local to server 1.
	if res.PagesSent != 500 {
		t.Errorf("pages sent = %d, want 500", res.PagesSent)
	}
}

func TestConfigValidation(t *testing.T) {
	good := chainConfig(t, 2, 1, workload.Moderate, true)

	cfg := good
	cfg.Next = nil
	if _, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping)); err == nil {
		t.Error("missing Next accepted")
	}

	cfg = good
	cfg.Catalog = nil
	if _, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping)); err == nil {
		t.Error("missing catalog accepted")
	}

	cfg = good
	cfg.Params.NumDisks = 0
	if _, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping)); err == nil {
		t.Error("zero-disk config accepted")
	}
}

// TestServerLoadNamesNoServer: a ServerLoad key that names no server — past
// the last one, or the client's -1 — is an error naming the smallest such
// key, not a load that silently never runs. A valid load costs the check no
// allocation.
func TestServerLoadNamesNoServer(t *testing.T) {
	good := chainConfig(t, 2, 2, workload.Moderate, true)
	for _, tc := range []struct {
		load map[catalog.SiteID]float64
		bad  string
	}{
		{map[catalog.SiteID]float64{5: 40}, "site 5,"},
		{map[catalog.SiteID]float64{catalog.Client: 40}, "site -1,"},
		{map[catalog.SiteID]float64{0: 40, 9: 1, 3: 1, 2: 1, 1: 40}, "site 2,"},
	} {
		cfg := good
		cfg.ServerLoad = tc.load
		_, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping))
		if err == nil || !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("load %v: err %v, want one naming %s", tc.load, err, strings.TrimSuffix(tc.bad, ","))
		}
	}
	cfg := good
	cfg.ServerLoad = map[catalog.SiteID]float64{0: 40, 1: 10}
	if _, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping)); err != nil {
		t.Fatalf("load on both servers: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = cfg.validate() }); allocs != 0 {
		t.Errorf("validate of a valid load allocates %.0f times, want 0", allocs)
	}
}

func TestMultipleDisksRelieveContention(t *testing.T) {
	// With two disks per site, a QS min-alloc join can scan from one arm
	// while spilling partitions to the other — Table 2's NumDisks parameter
	// doing its job.
	rt := func(disks int) float64 {
		cfg := chainConfig(t, 2, 1, workload.Moderate, false)
		cfg.Params.NumDisks = disks
		res, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping))
		if err != nil {
			t.Fatal(err)
		}
		if want := workload.ExpectedResult(2, workload.Moderate); res.ResultTuples != want {
			t.Fatalf("disks=%d: result %d, want %d", disks, res.ResultTuples, want)
		}
		return res.ResponseTime
	}
	one, two := rt(1), rt(2)
	if two >= one {
		t.Errorf("2 disks RT %.2f should beat 1 disk RT %.2f", two, one)
	}
}

func TestLookaheadDeepensPipeline(t *testing.T) {
	// More lookahead can only help (or leave unchanged) a cross-site
	// pipeline.
	rt := func(lookahead int) float64 {
		cfg := chainConfig(t, 2, 2, workload.Moderate, true)
		cfg.Params.LookaheadPages = lookahead
		j := plan.NewJoin(plan.NewScan("R0"), plan.NewScan("R1"))
		j.Ann = plan.AnnConsumer
		res, err := Run(cfg, plan.NewDisplay(j))
		if err != nil {
			t.Fatal(err)
		}
		return res.ResponseTime
	}
	if deep, shallow := rt(32), rt(1); deep > shallow*1.02 {
		t.Errorf("lookahead 32 RT %.3f worse than lookahead 1 RT %.3f", deep, shallow)
	}
}
