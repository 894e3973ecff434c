package hybridship

import (
	"fmt"
	"strings"
	"testing"

	"hybridship/internal/cost"
	"hybridship/internal/exec"
	"hybridship/internal/machine"
)

func demoSystem(t testing.TB, servers int, cached float64) *System {
	t.Helper()
	sys, err := NewSystem(SystemConfig{Servers: servers, MaxAlloc: true}, []Relation{
		{Name: "emp", Tuples: 10000, TupleBytes: 100, Server: 0, Cached: cached},
		{Name: "dept", Tuples: 10000, TupleBytes: 100, Server: (servers - 1) % servers, Cached: cached},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func demoQuery() Query {
	return Query{
		Predicates: []JoinPredicate{{Left: "emp", Right: "dept", Selectivity: 1e-4}},
	}
}

func TestOptimizeAndExecute(t *testing.T) {
	sys := demoSystem(t, 2, 0)
	q := demoQuery()
	for _, pol := range []Policy{DataShipping, QueryShipping, HybridShipping} {
		pl, err := sys.Optimize(q, OptimizeOptions{Policy: pol, Metric: MinimizeResponseTime, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		res, err := sys.Execute(q, pl, ExecOptions{})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.ResultTuples != 10000 {
			t.Errorf("%v: result = %d tuples, want 10000", pol, res.ResultTuples)
		}
		if res.ResponseTime <= 0 {
			t.Errorf("%v: non-positive response time", pol)
		}
		if pl.EstimatedResponseTime() <= 0 {
			t.Errorf("%v: non-positive estimate", pol)
		}
	}
}

func TestPolicyClassification(t *testing.T) {
	sys := demoSystem(t, 2, 0)
	q := demoQuery()
	ds, err := sys.Optimize(q, OptimizeOptions{Policy: DataShipping, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.Policy(); got != DataShipping {
		t.Errorf("DS plan classified as %v", got)
	}
	qs, err := sys.Optimize(q, OptimizeOptions{Policy: QueryShipping, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := qs.Policy(); got != QueryShipping {
		t.Errorf("QS plan classified as %v", got)
	}
}

func TestPlanRendering(t *testing.T) {
	sys := demoSystem(t, 1, 0)
	pl, err := sys.Optimize(demoQuery(), OptimizeOptions{Policy: QueryShipping, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := pl.String()
	for _, want := range []string{"display", "join", "scan(emp)", "scan(dept)"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan rendering missing %q:\n%s", want, s)
		}
	}
}

func TestCachingAffectsCommunication(t *testing.T) {
	q := demoQuery()
	cold := demoSystem(t, 1, 0)
	warm := demoSystem(t, 1, 1.0)
	plCold, err := cold.Optimize(q, OptimizeOptions{Policy: DataShipping, Metric: MinimizePagesSent, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	resCold, err := cold.Execute(q, plCold, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plWarm, err := warm.Optimize(q, OptimizeOptions{Policy: DataShipping, Metric: MinimizePagesSent, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	resWarm, err := warm.Execute(q, plWarm, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resCold.PagesSent != 500 || resWarm.PagesSent != 0 {
		t.Errorf("DS pages: cold %d (want 500), warm %d (want 0)", resCold.PagesSent, resWarm.PagesSent)
	}
}

func TestSelectionsAndCustomJoinAttribute(t *testing.T) {
	sys := demoSystem(t, 2, 0)
	q := Query{
		Predicates: []JoinPredicate{{Left: "emp", Right: "dept", Selectivity: 0.2 / 10000}},
		// HiSel-style: only ids with 5*id < 10000 participate.
		JoinAttribute: func(_ string, id int64) int64 { return 5 * id },
	}
	pl, err := sys.Optimize(q, OptimizeOptions{Policy: QueryShipping, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Execute(q, pl, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultTuples != 2000 {
		t.Errorf("HiSel 2-way result = %d, want 2000", res.ResultTuples)
	}

	q2 := Query{
		Predicates: []JoinPredicate{{Left: "emp", Right: "dept", Selectivity: 1e-4}},
		Selections: map[string]Selection{
			"emp": {Selectivity: 0.25, Pass: func(id int64) bool { return id%4 == 0 }},
		},
	}
	pl2, err := sys.Optimize(q2, OptimizeOptions{Policy: HybridShipping, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sys.Execute(q2, pl2, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ResultTuples != 2500 {
		t.Errorf("selected result = %d, want 2500", res2.ResultTuples)
	}
}

func TestSiteSelectKeepsJoinOrderAcrossSystems(t *testing.T) {
	q := demoQuery()
	// Compile against one placement, re-select sites against another.
	compileSys := demoSystem(t, 1, 0)
	pl, err := compileSys.Optimize(q, OptimizeOptions{Policy: HybridShipping, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	runSys := demoSystem(t, 2, 0.5)
	pl2, err := runSys.SiteSelect(q, pl, OptimizeOptions{Policy: HybridShipping, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSys.Execute(q, pl2, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultTuples != 10000 {
		t.Errorf("2-step executed result = %d, want 10000", res.ResultTuples)
	}
}

func TestServerLoadSlowsExecution(t *testing.T) {
	sys := demoSystem(t, 1, 0)
	q := demoQuery()
	pl, err := sys.Optimize(q, OptimizeOptions{Policy: QueryShipping, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	base, err := sys.Execute(q, pl, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := sys.Execute(q, pl, ExecOptions{ServerLoad: map[int]float64{0: 60}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ResponseTime <= base.ResponseTime {
		t.Errorf("server load did not slow QS: %.2f vs %.2f", loaded.ResponseTime, base.ResponseTime)
	}
}

// TestServerLoadNamesNoServer: every entry point that takes a server load
// rejects a key that names no server, past the last one or negative, with
// an error naming the smallest such key.
func TestServerLoadNamesNoServer(t *testing.T) {
	sys := demoSystem(t, 2, 0)
	q := demoQuery()
	pl, err := sys.Optimize(q, OptimizeOptions{Policy: QueryShipping, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		load map[int]float64
		bad  string
	}{
		{map[int]float64{5: 40}, "site 5,"},
		{map[int]float64{-1: 40}, "site -1,"},
		{map[int]float64{0: 40, 7: 1, -3: 1, 2: 1}, "site -3,"},
	} {
		check := func(call string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), tc.bad) {
				t.Errorf("%s with load %v: err %v, want one naming %s", call, tc.load, err, strings.TrimSuffix(tc.bad, ","))
			}
		}
		_, err := sys.Optimize(q, OptimizeOptions{Policy: QueryShipping, ServerLoad: tc.load})
		check("Optimize", err)
		_, err = sys.Optimize(q, OptimizeOptions{Policy: QueryShipping, ServerLoad: tc.load, Exhaustive: true})
		check("exhaustive Optimize", err)
		_, err = sys.SiteSelect(q, pl, OptimizeOptions{Policy: QueryShipping, ServerLoad: tc.load})
		check("SiteSelect", err)
		_, err = sys.Execute(q, pl, ExecOptions{ServerLoad: tc.load})
		check("Execute", err)
		_, err = sys.ExecuteConcurrent(q, []Submission{{Plan: pl}}, ExecOptions{ServerLoad: tc.load})
		check("ExecuteConcurrent", err)
	}
}

func TestInvalidInputsRejected(t *testing.T) {
	if _, err := NewSystem(SystemConfig{Servers: 1}, []Relation{
		{Name: "a", Tuples: 10, TupleBytes: 100, Server: 5},
	}); err == nil {
		t.Error("relation on nonexistent server accepted")
	}
	sys := demoSystem(t, 1, 0)
	if _, err := sys.Optimize(Query{
		Predicates: []JoinPredicate{{Left: "emp", Right: "ghost", Selectivity: 1e-4}},
	}, OptimizeOptions{}); err == nil {
		t.Error("query on undeclared relation accepted")
	}
	if _, err := sys.Optimize(Query{
		Predicates: []JoinPredicate{{Left: "emp", Right: "dept", Selectivity: 7}},
	}, OptimizeOptions{}); err == nil {
		t.Error("selectivity > 1 accepted")
	}
}

// TestDefaultConfigMatchesPaperTable2 pins the Table 2 defaults.
func TestDefaultConfigMatchesPaperTable2(t *testing.T) {
	table2 := machine.Params{
		Mips: 50, NumDisks: 1, DiskInst: 5000, PageSize: 4096, NetBw: 100e6,
		MsgInst: 20000, PerSizeMI: 12000, DisplayInst: 0, CompareInst: 2,
		HashInst: 9, MoveInst: 1, MaxAlloc: false, FudgeF: 1.2,
	}
	for name, got := range map[string]machine.Params{
		"SystemConfig{}":     SystemConfig{Servers: 1}.withDefaults().machine(),
		"exec.DefaultParams": exec.DefaultParams().Params,
		"cost.DefaultParams": cost.DefaultParams().Params,
	} {
		if got != table2 {
			t.Errorf("%s: %+v, want Table 2 %+v", name, got, table2)
		}
	}

	// Every Table 2 setting of SystemConfig away from its default: the
	// engine and the cost model built from it must read the same values.
	sys, err := NewSystem(SystemConfig{
		Servers: 2, Mips: 25, NumDisks: 2, DiskInst: 4000, PageSize: 8192,
		NetBwBits: 10e6, MsgInst: 15000, PerSizeMI: 9000, DisplayInst: 7,
		CompareInst: 3, HashInst: 11, MoveInst: 2, MaxAlloc: true,
	}, []Relation{
		{Name: "emp", Tuples: 100, TupleBytes: 100, Server: 0},
		{Name: "dept", Tuples: 100, TupleBytes: 100, Server: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := machine.Params{
		Mips: 25, NumDisks: 2, DiskInst: 4000, PageSize: 8192, NetBw: 10e6,
		MsgInst: 15000, PerSizeMI: 9000, DisplayInst: 7, CompareInst: 3,
		HashInst: 11, MoveInst: 2, MaxAlloc: true, FudgeF: 1.2,
	}
	ecfg, err := sys.execConfig(demoQuery(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	model, err := sys.model(demoQuery(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ecfg.Params.Params; got != want {
		t.Errorf("engine: %+v, want %+v", got, want)
	}
	if got := model.Params.Params; got != want {
		t.Errorf("cost model: %+v, want %+v", got, want)
	}
}

func TestExhaustiveOptimizer(t *testing.T) {
	sys := demoSystem(t, 2, 0.5)
	q := demoQuery()
	pl, err := sys.Optimize(q, OptimizeOptions{
		Policy: HybridShipping, Metric: MinimizeTotalCost, Exhaustive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The DP result must not lose to any randomized run on the exact metric.
	for seed := int64(1); seed <= 3; seed++ {
		r, err := sys.Optimize(q, OptimizeOptions{
			Policy: HybridShipping, Metric: MinimizeTotalCost, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.EstimatedTotalCost() < pl.EstimatedTotalCost()-1e-9 {
			t.Errorf("randomized %.4f beat exhaustive %.4f", r.EstimatedTotalCost(), pl.EstimatedTotalCost())
		}
	}
	res, err := sys.Execute(q, pl, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultTuples != 10000 {
		t.Errorf("exhaustive plan result = %d, want 10000", res.ResultTuples)
	}
}

func TestPlanSerializationRoundTrip(t *testing.T) {
	q := demoQuery()
	compileSys := demoSystem(t, 2, 0)
	pl, err := compileSys.Optimize(q, OptimizeOptions{Policy: HybridShipping, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	data, err := pl.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}

	// A different process, later: load the stored plan against a system
	// whose cache state has changed, and execute it.
	runSys := demoSystem(t, 2, 1.0)
	loaded, err := runSys.LoadPlan(q, data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.String() != pl.String() {
		t.Errorf("loaded plan differs:\n%s\nvs\n%s", loaded, pl)
	}
	res, err := runSys.Execute(q, loaded, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultTuples != 10000 {
		t.Errorf("loaded plan result = %d, want 10000", res.ResultTuples)
	}

	if _, err := runSys.LoadPlan(q, []byte("{")); err == nil {
		t.Error("corrupt plan accepted")
	}
}

func TestGroupedAggregation(t *testing.T) {
	sys := demoSystem(t, 2, 0)
	q := demoQuery()
	q.GroupBy = 64
	pl, err := sys.Optimize(q, OptimizeOptions{
		Policy: HybridShipping, Metric: MinimizePagesSent, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Execute(q, pl, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultTuples != 64 {
		t.Errorf("aggregated result = %d tuples, want 64 groups", res.ResultTuples)
	}
	// With the aggregate placed at a server, only the base-relation shipping
	// between the two servers (250 pages) plus two pages of groups crosses
	// the wire — the 250-page result itself never does.
	if res.PagesSent > 252 {
		t.Errorf("aggregation did not shrink communication: %d pages", res.PagesSent)
	}

	// A scalar aggregate (one group) yields a single tuple.
	q.GroupBy = 1
	pl1, err := sys.Optimize(q, OptimizeOptions{Policy: QueryShipping, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := sys.Execute(q, pl1, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res1.ResultTuples != 1 {
		t.Errorf("scalar aggregate = %d tuples, want 1", res1.ResultTuples)
	}
}

func TestAggregationSerializes(t *testing.T) {
	sys := demoSystem(t, 2, 0)
	q := demoQuery()
	q.GroupBy = 10
	pl, err := sys.Optimize(q, OptimizeOptions{Policy: HybridShipping, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pl.String(), "aggregate") {
		t.Fatalf("plan lost the aggregation:\n%s", pl)
	}
	data, err := pl.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := sys.LoadPlan(q, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != pl.String() {
		t.Error("aggregation plan round trip mismatch")
	}
}

func TestExecuteConcurrent(t *testing.T) {
	sys := demoSystem(t, 2, 0)
	q := demoQuery()
	pl, err := sys.Optimize(q, OptimizeOptions{Policy: QueryShipping, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := sys.Execute(q, pl, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := sys.ExecuteConcurrent(q, []Submission{
		{Plan: pl}, {Plan: pl}, {Plan: pl},
	}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, r := range results {
		if r.ResultTuples != 10000 {
			t.Errorf("query %d: result = %d, want 10000", i, r.ResultTuples)
		}
		if r.ResponseTime < solo.ResponseTime {
			t.Errorf("query %d: concurrent RT %.2f below solo %.2f", i, r.ResponseTime, solo.ResponseTime)
		}
	}
}

// TestExecuteConcurrentAppliesSelections runs the selection query of
// TestSelectionsAndCustomJoinAttribute as one concurrent submission at time
// 0, which must measure exactly what Execute measures: the selection's
// filter applies on both paths.
func TestExecuteConcurrentAppliesSelections(t *testing.T) {
	sys := demoSystem(t, 2, 0)
	q := Query{
		Predicates: []JoinPredicate{{Left: "emp", Right: "dept", Selectivity: 1e-4}},
		Selections: map[string]Selection{
			"emp": {Selectivity: 0.25, Pass: func(id int64) bool { return id%4 == 0 }},
		},
	}
	pl, err := sys.Optimize(q, OptimizeOptions{Policy: HybridShipping, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := sys.Execute(q, pl, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := sys.ExecuteConcurrent(q, []Submission{{Plan: pl, Start: 0}}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := results[0]
	if got.ResultTuples != solo.ResultTuples || got.ResponseTime != solo.ResponseTime {
		t.Errorf("concurrent run: %d tuples in %v s, Execute: %d tuples in %v s",
			got.ResultTuples, got.ResponseTime, solo.ResultTuples, solo.ResponseTime)
	}
}

// TestWideQueryRejected declares 65 relations, one more than a relation
// mask holds, and checks that both optimizers refuse their chain query with
// an error instead of a panic.
func TestWideQueryRejected(t *testing.T) {
	var rels []Relation
	var q Query
	for i := 0; i < 65; i++ {
		rels = append(rels, Relation{Name: fmt.Sprint("R", i), Tuples: 100, TupleBytes: 100})
		if i > 0 {
			q.Predicates = append(q.Predicates, JoinPredicate{Left: rels[i-1].Name, Right: rels[i].Name, Selectivity: 0.01})
		}
	}
	sys, err := NewSystem(SystemConfig{Servers: 1}, rels)
	if err != nil {
		t.Fatal(err)
	}
	for _, exhaustive := range []bool{false, true} {
		_, err := sys.Optimize(q, OptimizeOptions{Policy: HybridShipping, Exhaustive: exhaustive})
		if err == nil || !strings.Contains(err.Error(), "65 relations exceed the limit of 64") {
			t.Errorf("exhaustive=%v: error %v, want the relation-limit error", exhaustive, err)
		}
	}
}
