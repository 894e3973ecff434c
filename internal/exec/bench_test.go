package exec

import (
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/faults"
	"hybridship/internal/plan"
	"hybridship/internal/workload"
)

// benchRun measures wall-clock time per complete Run of one query.
func benchRun(b *testing.B, cfg Config, root *plan.Node) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRun10WayQS is the reference full-query benchmark of this PR: the
// moderate 10-way chain over 4 servers under query shipping, max allocation.
func BenchmarkRun10WayQS(b *testing.B) {
	cfg := chainConfig(b, 10, 4, workload.Moderate, true)
	benchRun(b, cfg, annotate(leftDeepChain(10), plan.QueryShipping))
}

// BenchmarkRun10WayQSLoaded adds an external server load, exercising the
// pooled load-generator daemons and the contended (slow-path) kernel.
func BenchmarkRun10WayQSLoaded(b *testing.B) {
	cfg := chainConfig(b, 10, 4, workload.Moderate, true)
	cfg.ServerLoad = map[catalog.SiteID]float64{0: 40}
	benchRun(b, cfg, annotate(leftDeepChain(10), plan.QueryShipping))
}

// BenchmarkRun10WayDS ships every page to the client through the page-server
// daemons: the network- and pager-heavy variant.
func BenchmarkRun10WayDS(b *testing.B) {
	cfg := chainConfig(b, 10, 4, workload.Moderate, true)
	benchRun(b, cfg, annotate(leftDeepChain(10), plan.DataShipping))
}

// BenchmarkRunSpill runs the minimum-allocation 10-way chain, where every
// join spills partitions to temp disk and reads them back.
func BenchmarkRunSpill(b *testing.B) {
	cfg := chainConfig(b, 10, 4, workload.Moderate, false)
	benchRun(b, cfg, annotate(leftDeepChain(10), plan.QueryShipping))
}

// BenchmarkRun10WayQSFaultsIdle is BenchmarkRun10WayQS with a fault
// injector that never fires: the only scripted fault lies far beyond the end
// of the run, so the delta against BenchmarkRun10WayQS is the price of the
// injector's daemons on a fault-free run.
func BenchmarkRun10WayQSFaultsIdle(b *testing.B) {
	cfg := chainConfig(b, 10, 4, workload.Moderate, true)
	cfg.Faults = &faults.Config{
		Seed:   1,
		Script: []faults.Event{{At: 1e9, Kind: faults.SiteCrash, Site: 0, Duration: 1}},
	}
	benchRun(b, cfg, annotate(leftDeepChain(10), plan.QueryShipping))
}

// BenchmarkRun2WayQSFaultsChaos runs a short query under live stochastic
// site crashes (plus retries and aborted work): the cost of a realistically
// faulted execution, not just of the standing machinery. The query is kept
// short (2-way, one server) so each attempt has a good chance of fitting
// inside an up-interval; a crash-dominated run would measure the retry loop,
// not the engine.
func BenchmarkRun2WayQSFaultsChaos(b *testing.B) {
	cfg := chainConfig(b, 2, 1, workload.Moderate, true)
	cfg.Faults = &faults.Config{
		Seed:       1,
		SiteMTBF:   20,
		SiteMTTR:   1,
		MaxRetries: 200,
	}
	benchRun(b, cfg, annotate(leftDeepChain(2), plan.QueryShipping))
}
