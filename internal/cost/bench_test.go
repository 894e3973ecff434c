package cost

import (
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/plan"
	"hybridship/internal/workload"
)

// tenWay is the join10 benchmark workload's setting, a 10-way chain over 5
// servers with the first five relations cached at the client, and a hybrid
// shipping plan of it: a left-deep join order whose joins are annotated
// outer, inner and consumer in turn, with every other scan read at the
// client.
func tenWay(tb testing.TB) (*Model, *plan.Node, plan.Binding) {
	tb.Helper()
	cat, err := workload.BuildCatalog(4096, 5, workload.PlaceRoundRobin(10, 5))
	if err != nil {
		tb.Fatal(err)
	}
	if err := workload.CacheFirstK(cat, 5); err != nil {
		tb.Fatal(err)
	}
	q := workload.ChainQuery(10, workload.Moderate)
	scan := func(i int) *plan.Node {
		s := plan.NewScan(workload.RelName(i))
		s.Ann = plan.AnnPrimary
		if i%2 == 0 {
			s.Ann = plan.AnnClient
		}
		return s
	}
	anns := []plan.Annotation{plan.AnnOuter, plan.AnnInner, plan.AnnConsumer}
	tree := scan(0)
	for i := 1; i < 10; i++ {
		tree = plan.NewJoin(tree, scan(i))
		tree.Ann = anns[(i-1)%3]
	}
	root := plan.NewDisplay(tree)
	b, err := plan.Bind(root, cat, catalog.Client)
	if err != nil {
		tb.Fatal(err)
	}
	return &Model{Params: DefaultParams(), Catalog: cat, Query: q}, root, b
}

var estimateSink Estimate

// BenchmarkModelEstimate10Way measures the one-shot estimate of a bound
// plan (Model.Estimate: the API edge, two-step optimization's plan
// estimate and the benchmark's cost probe) on a 10-way hybrid-shipping
// plan, setting up its Estimator included.
func BenchmarkModelEstimate10Way(b *testing.B) {
	m, root, binding := tenWay(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		estimateSink = m.Estimate(root, binding)
	}
}
