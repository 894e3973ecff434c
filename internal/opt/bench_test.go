package opt

import (
	"fmt"
	"math/rand"
	"testing"

	"hybridship/internal/cost"
	"hybridship/internal/plan"
)

// BenchmarkRandomPlan measures fresh random-plan construction, the per-start
// setup cost of the optimizer.
func BenchmarkRandomPlan(b *testing.B) {
	cat, q := chainEnv(10, 5, 0)
	o := newOpt(cat, q, plan.HybridShipping, cost.MetricResponseTime, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.RandomPlan(); err != nil {
			b.Fatal(err)
		}
	}
}

// neighborFixture is a search positioned at a random 10-way plan on 5
// servers, as one II descent starts.
func neighborFixture(tb testing.TB) *searchState {
	tb.Helper()
	cat, q := chainEnv(10, 5, 0)
	o := newOpt(cat, q, plan.HybridShipping, cost.MetricResponseTime, 1)
	start, err := o.RandomPlan()
	if err != nil {
		tb.Fatal(err)
	}
	st := newSearch(o, o.opts, rand.New(rand.NewSource(1)))
	st.reset(start.Plan)
	return st
}

// neighborStep is one inner-loop step of the search as the hot path runs
// it: pick a move, apply it in place, evaluate the mutated tree, revert.
func neighborStep(st *searchState, u *undoRec) {
	st.apply(st.moveAt(st.rng.Intn(st.moveCount())), u)
	st.evaluate() // ok=false (an ill-formed candidate) is a normal outcome
	st.revert(u)
}

// BenchmarkNeighborEvaluate measures one search step (neighborStep) as the
// memo answers it: the fixture reverts every step, so after a few hundred
// steps every candidate is one the memo holds, and the step neither binds
// nor estimates. TestSearchStepZeroAlloc gates its allocations.
func BenchmarkNeighborEvaluate(b *testing.B) {
	st := neighborFixture(b)
	var u undoRec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		neighborStep(st, &u)
	}
}

// missStep is one step of an annealing-like walk that the memo cannot
// answer: pick a move, apply it, clear the memo and evaluate, then keep a
// well-formed candidate with probability one half and revert the rest. The
// walk keeps moving, so every step binds and estimates a plan the last
// step's differs from by one move.
func missStep(st *searchState, u *undoRec) {
	st.apply(st.moveAt(st.rng.Intn(st.moveCount())), u)
	st.memo.clear()
	if v, ok := st.evaluate(); ok && st.rng.Intn(2) == 0 {
		st.accept(v, u)
	} else {
		st.revert(u)
	}
}

// BenchmarkNeighborEvaluateMiss measures one search step on the memo's
// miss path (missStep): the move, the bind and the estimate of what it
// changed, and the accept or revert, on a 10-way plan over 5 servers.
func BenchmarkNeighborEvaluateMiss(b *testing.B) {
	st := neighborFixture(b)
	var u undoRec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		missStep(st, &u)
	}
}

// BenchmarkOptimize10Way measures what the paper reports in §3.1.1: one
// full two-phase optimization (join ordering and site selection) of a
// 10-way chain join over 10 servers, about 40 s on a 1995 SPARCstation 5.
func BenchmarkOptimize10Way(b *testing.B) {
	cat, q := chainEnv(10, 10, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := newOpt(cat, q, plan.HybridShipping, cost.MetricResponseTime, int64(i))
		if _, err := o.Optimize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimize2Way measures the search of the 2-way figures (2-5) and
// of the join2 benchmark workload: a 2-way chain on one server, each op one
// Optimize, cycling through the three policies and the two metrics those
// figures minimize. Its plan space is a few dozen states, so the memo
// answers about 99% of the candidates.
func BenchmarkOptimize2Way(b *testing.B) {
	cat, q := chainEnv(2, 1, 0)
	pols := []plan.Policy{plan.DataShipping, plan.QueryShipping, plan.HybridShipping}
	metrics := []cost.Metric{cost.MetricPagesSent, cost.MetricResponseTime}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := newOpt(cat, q, pols[i%3], metrics[i/3%2], int64(i))
		if _, err := o.Optimize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimize10WayCells measures one 10-way optimization on 10
// servers per op for each policy and metric of the join10 benchmark
// workload's cells (Figures 6-8): response time under the minimum memory
// allocation, pages sent under the maximum.
func BenchmarkOptimize10WayCells(b *testing.B) {
	cat, q := chainEnv(10, 10, 0)
	for _, pol := range []plan.Policy{plan.DataShipping, plan.QueryShipping, plan.HybridShipping} {
		for _, metric := range []cost.Metric{cost.MetricResponseTime, cost.MetricPagesSent} {
			p := cost.DefaultParams()
			p.MaxAlloc = metric == cost.MetricPagesSent
			m := &cost.Model{Params: p, Catalog: cat, Query: q}
			b.Run(fmt.Sprintf("%v/%v", pol, metric), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := New(m, DefaultOptions(pol, metric, int64(i))).Optimize(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
