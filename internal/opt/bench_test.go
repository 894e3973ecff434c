package opt

import (
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
	st.reset(start.Plan, start.Estimate)
	return st
}

// neighborStep is one inner-loop step of the search as the hot path runs
// it: pick a move, apply it in place, evaluate the mutated tree, revert.
func neighborStep(st *searchState, u *undoRec) {
	moves := st.ensureMoves()
	mv := moves[st.rng.Intn(len(moves))]
	applyMove(st.nodes, mv, st.opts.Policy, st.o.model.Catalog, u)
	st.evaluate() // ok=false (an ill-formed candidate) is a normal outcome
	u.revert()
}

// BenchmarkNeighborEvaluate measures one search step (neighborStep). This
// is the unit the allocation-lean rewrite targets (the seed implementation
// cloned the whole tree per step); TestSearchStepZeroAlloc gates its
// allocations.
func BenchmarkNeighborEvaluate(b *testing.B) {
	st := neighborFixture(b)
	var u undoRec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		neighborStep(st, &u)
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
