package experiments

import (
	"testing"
)

// quickCfg keeps test runs fast: thin sweeps, few repetitions.
func quickCfg() Config { return Config{Reps: 2, Seed: 17, Quick: true} }

// seriesByName indexes a figure's series.
func seriesByName(t *testing.T, f *Figure, name string) Series {
	t.Helper()
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("%s: no series %q", f.ID, name)
	return Series{}
}

// pointAt returns the point with the given x.
func pointAt(t *testing.T, s Series, x float64) Point {
	t.Helper()
	for _, p := range s.Points {
		if p.X == x {
			return p
		}
	}
	t.Fatalf("series %s: no point at x=%g", s.Name, x)
	return Point{}
}

func TestFig2Shape(t *testing.T) {
	fig := quickReport(t, "fig2").Figures[0]
	t.Logf("\n%s", fig)
	ds := seriesByName(t, fig, "DS")
	qs := seriesByName(t, fig, "QS")
	hy := seriesByName(t, fig, "HY")

	// QS is flat at the result size (250 pages), independent of caching.
	for _, p := range qs.Points {
		if p.Mean != 250 {
			t.Errorf("QS at %g%% = %.0f pages, want 250", p.X, p.Mean)
		}
	}
	// DS: 500 pages at 0%, 0 at 100%, decreasing.
	if p := pointAt(t, ds, 0); p.Mean != 500 {
		t.Errorf("DS at 0%% = %.0f, want 500", p.Mean)
	}
	if p := pointAt(t, ds, 100); p.Mean != 0 {
		t.Errorf("DS at 100%% = %.0f, want 0", p.Mean)
	}
	// HY matches the better pure policy at the extremes.
	if p := pointAt(t, hy, 0); p.Mean > 250 {
		t.Errorf("HY at 0%% = %.0f, want <= 250 (QS plan)", p.Mean)
	}
	if p := pointAt(t, hy, 100); p.Mean > 0 {
		t.Errorf("HY at 100%% = %.0f, want 0 (DS plan)", p.Mean)
	}
}

func TestFig3Shape(t *testing.T) {
	fig, err := quickCfg().Fig3()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", fig)
	ds := seriesByName(t, fig, "DS")
	qs := seriesByName(t, fig, "QS")
	hy := seriesByName(t, fig, "HY")

	// §4.2.2: QS worst (scan/join interference on the server disk); DS best
	// with no caching; DS degrades as caching grows; HY at least matches
	// the best pure policy everywhere.
	if ds0, qs0 := pointAt(t, ds, 0).Mean, pointAt(t, qs, 0).Mean; ds0 >= qs0 {
		t.Errorf("at 0%% caching DS RT %.2f should beat QS %.2f", ds0, qs0)
	}
	if ds0, ds100 := pointAt(t, ds, 0).Mean, pointAt(t, ds, 100).Mean; ds100 <= ds0 {
		t.Errorf("DS should degrade with caching: %.2f at 0%% vs %.2f at 100%%", ds0, ds100)
	}
	for i, p := range hy.Points {
		best := pointAt(t, ds, p.X).Mean
		if q := pointAt(t, qs, p.X).Mean; q < best {
			best = q
		}
		if p.Mean > best*1.25 {
			t.Errorf("HY point %d (x=%g): %.2f much worse than best pure %.2f", i, p.X, p.Mean, best)
		}
	}
}

func TestFig9MigrationExample(t *testing.T) {
	res, err := quickCfg().Fig9()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("static=%d 2-step=%d ideal=%d", res.StaticPages, res.TwoStepPages, res.IdealPages)
	// §5.1: the static plan performs twice the communication of the optimal
	// plan; 2-step reduces the penalty to 50% extra.
	if res.IdealPages != 500 {
		t.Errorf("ideal pages = %d, want 500 (two join results to the client)", res.IdealPages)
	}
	if res.StaticPages != 1000 {
		t.Errorf("static pages = %d, want 1000 (2x optimal)", res.StaticPages)
	}
	if res.TwoStepPages != 750 {
		t.Errorf("2-step pages = %d, want 750 (1.5x optimal)", res.TwoStepPages)
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("10-way sweep")
	}
	fig, err := quickCfg().Fig6()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", fig)
	ds := seriesByName(t, fig, "DS")
	qs := seriesByName(t, fig, "QS")
	hy := seriesByName(t, fig, "HY")

	// DS always ships all ten relations: flat at 2500 pages.
	for _, p := range ds.Points {
		if p.Mean != 2500 {
			t.Errorf("DS at %g servers = %.0f pages, want 2500", p.X, p.Mean)
		}
	}
	// QS ships only the result with one server and grows toward DS.
	if p := pointAt(t, qs, 1); p.Mean != 250 {
		t.Errorf("QS at 1 server = %.0f, want 250", p.Mean)
	}
	if p1, p10 := pointAt(t, qs, 1).Mean, pointAt(t, qs, 10).Mean; p10 <= p1 {
		t.Errorf("QS should grow with servers: %.0f at 1 vs %.0f at 10", p1, p10)
	}
	// HY never ships more than the cheaper pure policy (within noise).
	for _, p := range hy.Points {
		best := pointAt(t, ds, p.X).Mean
		if q := pointAt(t, qs, p.X).Mean; q < best {
			best = q
		}
		if p.Mean > best*1.1+1 {
			t.Errorf("HY at %g servers = %.0f, worse than best pure %.0f", p.X, p.Mean, best)
		}
	}
}

func TestFig7HybridBeatsBothPure(t *testing.T) {
	if testing.Short() {
		t.Skip("10-way sweep")
	}
	fig, err := quickCfg().Fig7()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", fig)
	ds := seriesByName(t, fig, "DS")
	qs := seriesByName(t, fig, "QS")
	hy := seriesByName(t, fig, "HY")

	// With 5 of 10 relations cached, DS halves its traffic (flat 1250).
	for _, p := range ds.Points {
		if p.Mean != 1250 {
			t.Errorf("DS at %g servers = %.0f pages, want 1250", p.X, p.Mean)
		}
	}
	// §4.3.1: for middle server populations HY sends less than either pure
	// policy, by joining co-located relations wherever they live.
	beatBoth := false
	for _, p := range hy.Points {
		dsv := pointAt(t, ds, p.X).Mean
		qsv := pointAt(t, qs, p.X).Mean
		if p.Mean < dsv && p.Mean < qsv {
			beatBoth = true
		}
		if best := min2(dsv, qsv); p.Mean > best*1.1+1 {
			t.Errorf("HY at %g servers = %.0f, worse than best pure %.0f", p.X, p.Mean, best)
		}
	}
	if !beatBoth {
		t.Error("HY never beat both pure policies; the paper's Figure 7 effect is missing")
	}
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("10-way sweep")
	}
	fig := quickReport(t, "fig8").Figures[0]
	t.Logf("\n%s", fig)
	ds := seriesByName(t, fig, "DS")
	qs := seriesByName(t, fig, "QS")
	hy := seriesByName(t, fig, "HY")

	// QS improves greatly as servers are added (disk parallelism).
	if p1, p10 := pointAt(t, qs, 1).Mean, pointAt(t, qs, 10).Mean; p10 >= p1*0.75 {
		t.Errorf("QS should improve with servers: %.1f at 1 vs %.1f at 10", p1, p10)
	}
	// DS is largely independent of the number of servers: the client is the
	// bottleneck.
	if p1, p10 := pointAt(t, ds, 1).Mean, pointAt(t, ds, 10).Mean; p10 < p1*0.5 {
		t.Errorf("DS should be roughly flat: %.1f at 1 vs %.1f at 10", p1, p10)
	}
	// HY at least matches the best pure policy at small server counts.
	for _, x := range []float64{1, 2} {
		best := min2(pointAt(t, ds, x).Mean, pointAt(t, qs, x).Mean)
		if p := pointAt(t, hy, x); p.Mean > best*1.2 {
			t.Errorf("HY at %g servers = %.1f, want <= best pure %.1f", x, p.Mean, best)
		}
	}
}

func TestFig10TwoStepBeatsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("10-way two-step sweep")
	}
	fig, err := quickCfg().Fig10()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", fig)
	deepStatic := seriesByName(t, fig, "Deep Static")
	deep2 := seriesByName(t, fig, "Deep 2-Step")
	bushy2 := seriesByName(t, fig, "Bushy 2-Step")

	// §5.2: runtime site selection mitigates the centralized compile-time
	// assumption; bushy 2-step plans run close to ideal for larger server
	// populations while static deep plans pay a big penalty.
	for _, x := range []float64{5, 10} {
		ds := pointAt(t, deepStatic, x).Mean
		d2 := pointAt(t, deep2, x).Mean
		if d2 >= ds {
			t.Errorf("at %g servers deep 2-step (%.2f) should beat deep static (%.2f)", x, d2, ds)
		}
	}
	for _, x := range []float64{5, 10} {
		if b2 := pointAt(t, bushy2, x).Mean; b2 > 1.5 {
			t.Errorf("bushy 2-step at %g servers = %.2f, want near ideal (<= 1.5)", x, b2)
		}
	}
	// Every relative response time is >= ~1 (the ideal is a lower bound up
	// to optimizer noise).
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.Mean < 0.8 {
				t.Errorf("%s at %g servers = %.2f, below the ideal bound", s.Name, p.X, p.Mean)
			}
		}
	}
}

func TestFig11BushyRecoverWithServers(t *testing.T) {
	if testing.Short() {
		t.Skip("10-way HiSel two-step sweep")
	}
	fig, err := quickCfg().Fig11()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", fig)
	bushy2 := seriesByName(t, fig, "Bushy 2-Step")
	// §5.2: with HiSel joins bushy plans do extra work; as servers are added
	// that work is split and done in parallel, so bushy 2-step improves.
	first := pointAt(t, bushy2, 1).Mean
	last := pointAt(t, bushy2, 10).Mean
	if last > first+0.5 {
		t.Errorf("bushy 2-step should not degrade with servers: %.2f at 1 vs %.2f at 10", first, last)
	}
}

func TestExtCrossoverMovesRight(t *testing.T) {
	fig, err := quickCfg().ExtCrossover()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", fig)
	// With rho=0.2 the QS line is flat at 50 pages, so DS only wins at very
	// high cached fractions; with rho=1.0 the crossover sits at 50%.
	qsSmall := seriesByName(t, fig, "QS rho=0.2")
	dsSmall := seriesByName(t, fig, "DS rho=0.2")
	if p := pointAt(t, qsSmall, 0); p.Mean != 50 {
		t.Errorf("QS rho=0.2 ships %.0f pages, want 50", p.Mean)
	}
	// At 50%% cached, DS (250) still loses to QS (50) for the small result...
	if ds, qs := pointAt(t, dsSmall, 50).Mean, pointAt(t, qsSmall, 50).Mean; ds <= qs {
		t.Errorf("rho=0.2 at 50%%: DS %.0f should still exceed QS %.0f (crossover moved right)", ds, qs)
	}
	// ...whereas for the functional join the crossover is already reached.
	dsFull := seriesByName(t, fig, "DS rho=1.0")
	qsFull := seriesByName(t, fig, "QS rho=1.0")
	if ds, qs := pointAt(t, dsFull, 50).Mean, pointAt(t, qsFull, 50).Mean; ds > qs {
		t.Errorf("rho=1.0 at 50%%: DS %.0f should have met QS %.0f", ds, qs)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweeps")
	}
	cfg := quickCfg()

	la, err := cfg.AblationLookahead()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("lookahead: %+v", la)
	if la[2].ResponseTime > la[0].ResponseTime*1.05 {
		t.Errorf("lookahead=16 (%.2f) should not be materially slower than lookahead=1 (%.2f)",
			la[2].ResponseTime, la[0].ResponseTime)
	}

	wc, err := cfg.AblationWriteCache()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("write cache: %+v", wc)
	if wc[0].ResponseTime >= wc[1].ResponseTime {
		t.Errorf("write-back (%.2f) should beat write-through (%.2f)",
			wc[0].ResponseTime, wc[1].ResponseTime)
	}

	el, err := cfg.AblationElevator()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scheduling: %+v", el)
	// Elevator should not lose to FIFO by any meaningful margin.
	if el[0].ResponseTime > el[1].ResponseTime*1.1 {
		t.Errorf("elevator (%.2f) should not lose to FIFO (%.2f)",
			el[0].ResponseTime, el[1].ResponseTime)
	}

	cm, err := cfg.AblationCommutativity()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("commutativity: %+v", cm)
}

func TestExtStarCardinalityViaEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("star sweep")
	}
	fig, err := (Config{Reps: 1, Seed: 5, Quick: true}).ExtStar()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", fig)
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.Mean <= 0 {
				t.Errorf("%s at %g servers: non-positive response time", s.Name, p.X)
			}
		}
	}
}

func TestExtAggregateShrinksQSTraffic(t *testing.T) {
	fig, err := quickCfg().ExtAggregate()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", fig)
	qs := seriesByName(t, fig, "QS")
	ds := seriesByName(t, fig, "DS")
	hy := seriesByName(t, fig, "HY")
	// A scalar aggregate at the server ships a single page under QS/HY.
	if p := pointAt(t, qs, 1); p.Mean != 1 {
		t.Errorf("QS with 1 group ships %.0f pages, want 1", p.Mean)
	}
	if p := pointAt(t, hy, 1); p.Mean != 1 {
		t.Errorf("HY with 1 group ships %.0f pages, want 1", p.Mean)
	}
	// DS still faults everything regardless of the aggregation.
	for _, p := range ds.Points {
		if p.Mean != 500 {
			t.Errorf("DS at %g groups ships %.0f pages, want 500", p.X, p.Mean)
		}
	}
}

func TestExtMultiQueryApproximation(t *testing.T) {
	fig, err := quickCfg().ExtMultiQuery()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", fig)
	real := seriesByName(t, fig, "real concurrent queries")
	approx := seriesByName(t, fig, "load approximation")
	// More concurrency must slow each query down.
	if r1, r4 := pointAt(t, real, 1).Mean, pointAt(t, real, 4).Mean; r4 <= r1 {
		t.Errorf("4 concurrent queries (%.2f) should be slower than 1 (%.2f)", r4, r1)
	}
	// At k=1 the two methods coincide exactly (no load either way).
	if r, a := pointAt(t, real, 1).Mean, pointAt(t, approx, 1).Mean; r != a {
		t.Errorf("k=1 real %.2f != approximation %.2f", r, a)
	}
	// The load approximation should land within 2x of the real contention.
	for _, k := range []float64{2, 4} {
		r, a := pointAt(t, real, k).Mean, pointAt(t, approx, k).Mean
		if a < r/2 || a > r*2 {
			t.Errorf("k=%g: approximation %.2f far from real %.2f", k, a, r)
		}
	}
}
