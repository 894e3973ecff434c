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

// joinPageBenchPages is the build side of the page-kernel benchmarks, in
// pages: a table of about ten thousand entries, the size of serve-rw's,
// beyond the first-level caches.
const joinPageBenchPages = 256

// relPages returns pages full pooled pages of rel's rows with ids 0, 1, …
// in order.
func relPages(e *engine, j *hashJoin, rel string, pages int) []*colBatch {
	ps := make([]*colBatch, pages)
	for k := range ps {
		b := relPage(e, j, rel)
		col := b.col(0)
		for i := range col {
			col[i] += int64(k * j.tpp)
		}
		ps[k] = b
	}
	return ps
}

// reportPerRow reports the benchmark's time per input row.
func reportPerRow(b *testing.B, rowsPerOp int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rowsPerOp), "ns/row")
}

// BenchmarkJoinPageBuild measures the build kernel on one in-memory page:
// HashInst accrual, key evaluation, one append per column and the link
// pass. The table is cleared every joinPageBenchPages pages.
func BenchmarkJoinPageBuild(b *testing.B) {
	e, j := newTestJoin(b)
	pages := relPages(e, j, "R0", joinPageBenchPages)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(pages)
		if k == 0 {
			j.table.reset()
		}
		j.buildPage(nil, pages[k], nil)
		j.acc.parts = j.acc.parts[:0]
	}
	reportPerRow(b, j.tpp)
}

// BenchmarkJoinPageProbe measures the probe kernel on one page against a
// joinPageBenchPages-page table: chain walks, key compares, charge parts
// and the column-at-a-time emit.
func BenchmarkJoinPageProbe(b *testing.B) {
	e, j := newTestJoin(b)
	for _, pg := range relPages(e, j, "R0", joinPageBenchPages) {
		j.buildPage(nil, pg, nil)
	}
	pages := relPages(e, j, "R1", joinPageBenchPages)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.probePage(nil, pages[i%len(pages)], nil)
		drainOutput(e, j)
	}
	reportPerRow(b, j.tpp)
	if j.outCount == 0 {
		b.Fatal("the probe produced no matches")
	}
}

// BenchmarkJoinPageSpill measures routing one page over four spilled
// partitions and copying its rows onto their pages. Pages that fill go back
// to the pool unsealed: a seal's flush and disk write are kernel work.
func BenchmarkJoinPageSpill(b *testing.B) {
	e, j := newTestJoin(b)
	j.al = joinAlloc{memPages: 2, nParts: 4, chunkPages: 8}
	j.al.setShare(0.25)
	var parts []*partition
	for range j.al.nParts {
		parts = append(parts, newPartition(j.tpp, j.al.chunkPages))
	}
	pages := relPages(e, j, "R1", joinPageBenchPages)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := pages[i%len(pages)]
		j.probe.load(j.pkey, pg)
		j.route(j.probe.hash, pg.n, parts)
		for _, ev := range j.spill(j.probe.cols, parts) {
			e.pool.put(ev.b)
		}
	}
	reportPerRow(b, j.tpp)
}
