package hybridship

// One benchmark per table/figure of the paper. Each benchmark iteration
// regenerates the complete figure (all series, all x values) with a small
// number of repetitions per data point, and reports the headline numbers the
// paper plots as benchmark metrics, so `go test -bench` output doubles as a
// reproduction record. See EXPERIMENTS.md for the paper-vs-measured
// comparison.

import (
	"strings"
	"testing"

	"hybridship/internal/disk"
	"hybridship/internal/experiments"
	"hybridship/internal/sim"
)

// benchCfg keeps a single benchmark iteration affordable while still
// sweeping every x value of the original figure.
func benchCfg() experiments.Config {
	return experiments.Config{Reps: 2, Seed: 1996, Quick: true}
}

// metricName makes a series label safe for testing.B.ReportMetric.
func metricName(parts ...string) string {
	s := strings.Join(parts, "_")
	return strings.ReplaceAll(s, " ", "_")
}

// benchReport regenerates a driver's report b.N times and attaches its
// headline numbers as metrics: the first and last point of each series, and
// each numeric table field, named by its row's text fields and its Key.
func benchReport(b *testing.B, run func(experiments.Config) (*experiments.Report, error)) {
	b.Helper()
	var rep *experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = run(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, fig := range rep.Figures {
		for _, s := range fig.Series {
			if len(s.Points) == 0 {
				continue
			}
			first, last := s.Points[0], s.Points[len(s.Points)-1]
			b.ReportMetric(first.Mean, metricName(s.Name, "first"))
			b.ReportMetric(last.Mean, metricName(s.Name, "last"))
		}
	}
	for _, t := range rep.Tables {
		for _, row := range t.Rows {
			var label []string
			for _, f := range row.Fields {
				if s, ok := f.Val.(string); ok {
					label = append(label, s)
				}
			}
			for _, f := range row.Fields {
				switch v := f.Val.(type) {
				case float64:
					b.ReportMetric(v, metricName(append(label, f.Key)...))
				case int64:
					b.ReportMetric(float64(v), metricName(append(label, f.Key)...))
				}
			}
		}
	}
	var out strings.Builder
	rep.Write(&out, false)
	b.Logf("\n%s", out.String())
}

// BenchmarkTable2DiskCalibration regenerates the §4.1 calibration aggregates
// behind Table 2's disk settings: ~3.5 ms per sequential page, ~11.8 ms per
// random page.
func BenchmarkTable2DiskCalibration(b *testing.B) {
	var seqAvg, rndAvg float64
	for i := 0; i < b.N; i++ {
		params := disk.DefaultParams()
		measure := func(pages []disk.PageAddr) float64 {
			s := sim.New()
			d := disk.New(s, "cal", params)
			s.Spawn("reader", func(p *sim.Proc) {
				for _, pg := range pages {
					d.Read(p, pg)
				}
			})
			return s.Run() / float64(len(pages))
		}
		var seq []disk.PageAddr
		for j := 0; j < 1000; j++ {
			seq = append(seq, disk.PageAddr(j))
		}
		var rnd []disk.PageAddr
		state := uint64(88172645463325252)
		for j := 0; j < 1000; j++ {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			rnd = append(rnd, disk.PageAddr(state%uint64(params.Capacity())))
		}
		seqAvg, rndAvg = measure(seq), measure(rnd)
	}
	b.ReportMetric(seqAvg*1000, "seq_ms/page")
	b.ReportMetric(rndAvg*1000, "rand_ms/page")
}

// BenchmarkFig2 regenerates "Pages Sent, 2-Way Join, 1 Server, Vary
// Caching": DS falls linearly from 500 to 0; QS flat at 250; crossover at
// 50% cached; HY matches the cheaper policy.
func BenchmarkFig2(b *testing.B) { benchReport(b, experiments.Config.Fig2) }

// BenchmarkFig3 regenerates "Response Time, 2-Way Join, Vary Caching, No
// Load, Min Alloc": QS worst and flat (scan/join disk interference); DS
// degrades as caching grows; HY best everywhere.
func BenchmarkFig3(b *testing.B) { benchReport(b, experiments.Config.Fig3) }

// BenchmarkFig4 regenerates "Response Time, DS, Vary Load & Caching": with a
// heavily loaded server disk, client caching turns from a liability into a
// significant win.
func BenchmarkFig4(b *testing.B) { benchReport(b, experiments.Config.Fig4) }

// BenchmarkFig5 regenerates "Response Time, 2-Way Join, Vary Caching, Max
// Alloc": without spill I/O the DS/QS crossover moves slightly past 50%
// cached.
func BenchmarkFig5(b *testing.B) { benchReport(b, experiments.Config.Fig5) }

// BenchmarkFig6 regenerates "Pages Sent, 10-Way Join, Vary Servers, No
// Caching": DS flat at 2500; QS grows from 250 toward DS as relations
// spread.
func BenchmarkFig6(b *testing.B) { benchReport(b, experiments.Config.Fig6) }

// BenchmarkFig7 regenerates "Pages Sent, 10-Way Join, 5 Relations Cached":
// HY undercuts both pure policies for middle server populations.
func BenchmarkFig7(b *testing.B) { benchReport(b, experiments.Config.Fig7) }

// BenchmarkFig8 regenerates "Response Time, 10-Way Join, Vary Servers, Min
// Alloc": DS flat; QS improves greatly with server disk parallelism; HY at
// least matches both.
func BenchmarkFig8(b *testing.B) { benchReport(b, experiments.Config.Fig8) }

// BenchmarkFig9 regenerates the §5.1 migration example: static plans pay 2x
// the ideal communication, 2-step plans 1.5x.
func BenchmarkFig9(b *testing.B) { benchReport(b, experiments.Config.Fig9) }

// BenchmarkFig10 regenerates "Relative Response Time, Deep and Bushy Plans":
// deep static worst, bushy 2-step near ideal.
func BenchmarkFig10(b *testing.B) { benchReport(b, experiments.Config.Fig10) }

// BenchmarkFig11 regenerates the same for the HiSel query.
func BenchmarkFig11(b *testing.B) { benchReport(b, experiments.Config.Fig11) }

// Extension and ablation benches (see DESIGN.md §2 and EXPERIMENTS.md).

// BenchmarkExtCrossover measures how the DS/QS communication crossover moves
// with join result size (§4.2.1 prose, made quantitative).
func BenchmarkExtCrossover(b *testing.B) { benchReport(b, experiments.Config.ExtCrossover) }

// BenchmarkExtStar repeats Figure 8 for 10-way star joins.
func BenchmarkExtStar(b *testing.B) { benchReport(b, experiments.Config.ExtStar) }

// BenchmarkExtAggregate measures the policy tradeoff under grouped
// aggregation.
func BenchmarkExtAggregate(b *testing.B) { benchReport(b, experiments.Config.ExtAggregate) }

// BenchmarkExtMultiQuery compares real concurrent queries with the paper's
// external-load approximation of multiple clients.
func BenchmarkExtMultiQuery(b *testing.B) { benchReport(b, experiments.Config.ExtMultiQuery) }

// BenchmarkAblationLookahead varies the network producers' lookahead depth.
func BenchmarkAblationLookahead(b *testing.B) {
	benchReport(b, experiments.Config.AblationLookahead)
}

// BenchmarkAblationWriteCache compares write-back against write-through
// disks for spill-heavy joins.
func BenchmarkAblationWriteCache(b *testing.B) {
	benchReport(b, experiments.Config.AblationWriteCache)
}

// BenchmarkAblationElevator compares SCAN and FIFO disk scheduling under
// external load.
func BenchmarkAblationElevator(b *testing.B) {
	benchReport(b, experiments.Config.AblationElevator)
}

// BenchmarkAblationCommutativity measures optimizer plan quality with and
// without the join-commutativity move on the HiSel workload.
func BenchmarkAblationCommutativity(b *testing.B) {
	benchReport(b, experiments.Config.AblationCommutativity)
}
