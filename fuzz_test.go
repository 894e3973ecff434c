package hybridship

import (
	"fmt"
	"math/rand"
	"testing"
)

// FuzzSystem builds a random system from a seed: 1 to 4 servers, 2 to 5
// relations joined in a chain, maybe a selection and a grouping, some
// relations cached at the client, and maybe external load on a server. It
// plans the query under every policy and metric with both optimizers, and
// re-runs site selection on each plan, and checks that:
//
//   - every plan returns the same answer;
//   - Execute measures the response time and answer that a one-submission
//     ExecuteConcurrent measures;
//   - a plan reloaded from its JSON executes exactly as the plan does;
//   - nothing panics.
func FuzzSystem(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(2))
	f.Add(int64(3))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		servers := 1 + rng.Intn(4)
		rels := make([]Relation, 2+rng.Intn(4))
		var q Query
		for i := range rels {
			rels[i] = Relation{
				Name:       fmt.Sprint("R", i),
				Tuples:     100 + rng.Intn(900),
				TupleBytes: 50 + rng.Intn(150),
				Server:     rng.Intn(servers),
				Cached:     []float64{0, 0, 0.5, 1}[rng.Intn(4)],
			}
			if i > 0 {
				q.Predicates = append(q.Predicates, JoinPredicate{
					Left: rels[i-1].Name, Right: rels[i].Name, Selectivity: 1 / float64(rels[i].Tuples),
				})
			}
		}
		if rng.Intn(2) == 0 {
			mod := int64(2 + rng.Intn(3))
			q.Selections = map[string]Selection{rels[rng.Intn(len(rels))].Name: {
				Selectivity: 1 / float64(mod), Pass: func(id int64) bool { return id%mod == 0 },
			}}
		}
		if rng.Intn(3) == 0 {
			q.GroupBy = 1 + rng.Intn(20)
		}
		sys, err := NewSystem(SystemConfig{Servers: servers, MaxAlloc: rng.Intn(2) == 0}, rels)
		if err != nil {
			t.Fatal(err)
		}
		var load map[int]float64
		if rng.Intn(3) == 0 {
			load = map[int]float64{rng.Intn(servers): float64(10 + rng.Intn(40))}
		}
		eo := ExecOptions{ServerLoad: load, Seed: seed}

		answer := int64(-1)
		check := func(name string, pl *Plan) {
			t.Helper()
			res, err := sys.Execute(q, pl, eo)
			if err != nil {
				t.Fatalf("%s: execute: %v\n%s", name, err, pl)
			}
			if answer < 0 {
				answer = res.ResultTuples
			} else if res.ResultTuples != answer {
				t.Fatalf("%s: %d result tuples, other plans %d\n%s", name, res.ResultTuples, answer, pl)
			}
			conc, err := sys.ExecuteConcurrent(q, []Submission{{Plan: pl}}, eo)
			if err != nil {
				t.Fatalf("%s: execute concurrently: %v", name, err)
			}
			// A concurrent run reports each query's response time and
			// answer; its network totals are shared, not per query.
			if len(conc) != 1 || conc[0].ResponseTime != res.ResponseTime || conc[0].ResultTuples != res.ResultTuples {
				t.Fatalf("%s: one concurrent submission measures %+v, Execute %+v", name, conc, res)
			}
			data, err := pl.MarshalJSON()
			if err != nil {
				t.Fatalf("%s: marshal: %v", name, err)
			}
			loaded, err := sys.LoadPlan(q, data)
			if err != nil {
				t.Fatalf("%s: load: %v\n%s", name, err, data)
			}
			again, err := sys.Execute(q, loaded, eo)
			if err != nil {
				t.Fatalf("%s: execute the reloaded plan: %v", name, err)
			}
			if again != res {
				t.Fatalf("%s: the reloaded plan measures %+v, the plan %+v", name, again, res)
			}
		}
		for _, pol := range []Policy{DataShipping, QueryShipping, HybridShipping} {
			for _, metric := range []Metric{MinimizeResponseTime, MinimizeTotalCost, MinimizePagesSent} {
				for _, exhaustive := range []bool{false, true} {
					oo := OptimizeOptions{Policy: pol, Metric: metric, Seed: seed, Exhaustive: exhaustive, ServerLoad: load}
					name := fmt.Sprintf("%v/%v/exhaustive=%v", pol, metric, exhaustive)
					pl, err := sys.Optimize(q, oo)
					if err != nil {
						t.Fatalf("%s: optimize: %v", name, err)
					}
					check(name, pl)
					site, err := sys.SiteSelect(q, pl, oo)
					if err != nil {
						t.Fatalf("%s: site selection: %v", name, err)
					}
					check(name+"/site-select", site)
				}
			}
		}
	})
}
