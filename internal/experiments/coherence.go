package experiments

import (
	"fmt"

	"hybridship/internal/coherence"
	"hybridship/internal/cost"
	"hybridship/internal/faults"
	"hybridship/internal/plan"
	"hybridship/internal/serve"
	"hybridship/internal/workload"
)

// The coherence grid measures what crash-safe client caching costs and buys
// (DESIGN.md §15): the overload grid's workload — 2-way join, one server,
// half the pages client-cached — served through per-client coherent caches,
// swept over client count × write fraction × lease duration × fault level.
// Both query classes are planned DataShipping so the cached prefix is read
// through the client caches (a QS scan is server-bound and never touches
// them); the degradation fallback stays the cheap QS static plan.
//
// The driver is self-checking on soundness: the staleness oracle must hold
// StaleReads and StaleCommittedReads at zero in every cell — no committed
// query ever read a page version behind the committed version map, under
// any combination of writers, crashes, and lease expiries. The zero-write,
// single-client, infinite-lease column is the engine's default client cache,
// the one every run without a coherence config reads through.
//
// Writers require a finite lease (an infinite lease could stall them behind
// one crashed leaseholder forever), so write-bearing cells at lease 0 are
// skipped, not run. Client crashes are likewise injected only under finite
// leases: epoch recovery is part of the lease protocol.

// Coherence grid constants. The serve parameters mirror the overload grid's
// shape but fixed below saturation: the grid isolates coherence overhead
// (renewals, callbacks, writer waits), not admission control.
const (
	coherenceMPL        = 3
	coherenceQueueCap   = 8
	coherenceRate       = 2.0  // arrivals per virtual second
	coherenceDeadline   = 30.0 // per-query relative deadline
	coherenceOptInst    = 10e6
	coherenceClientMTBF = 20.0
	coherenceClientMTTR = 3.0
)

func (c Config) coherenceClients() []int {
	if c.Quick {
		return []int{1, 2}
	}
	return []int{1, 2, 4}
}

func (c Config) coherenceWriteFracs() []float64 {
	if c.Quick {
		return []float64{0, 0.25}
	}
	return []float64{0, 0.1, 0.3}
}

// coherenceLeases returns the lease-duration axis; 0 is the infinite lease
// (the paper's static-cache regime, read-only cells only).
func (c Config) coherenceLeases() []float64 {
	if c.Quick {
		return []float64{0, 0.5}
	}
	return []float64{0, 0.5, 2}
}

func (c Config) coherenceMTBFs() []float64 {
	return []float64{0, 16}
}

func (c Config) coherenceQueries() int {
	if c.Quick {
		return 32
	}
	return 48
}

// coherencePlans compiles the grid's shared plans: two DS classes (different
// optimizer seeds) and the static QS fallback.
func (c Config) coherencePlans() (fresh []*plan.Node, static *plan.Node, err error) {
	cat, err := twoWayCatalog(1, 0.5)
	if err != nil {
		return nil, nil, err
	}
	for class := 0; class < 2; class++ {
		r := run{
			cat: cat, q: workload.ChainQuery(2, workload.Moderate),
			policy: plan.DataShipping, metric: cost.MetricResponseTime, maxAlloc: true,
			next:    workload.Next(workload.Moderate),
			optSeed: seedFor(c.Seed, int64(class), 80),
		}
		res, err := r.optimize()
		if err != nil {
			return nil, nil, err
		}
		fresh = append(fresh, res.Plan)
	}
	r := run{
		cat: cat, q: workload.ChainQuery(2, workload.Moderate),
		policy: plan.QueryShipping, metric: cost.MetricResponseTime, maxAlloc: true,
		next:    workload.Next(workload.Moderate),
		optSeed: seedFor(c.Seed, 80),
	}
	res, err := r.optimize()
	if err != nil {
		return nil, nil, err
	}
	return fresh, res.Plan, nil
}

// coherenceConfig assembles one cell's serving config.
func (c Config) coherenceConfig(fresh []*plan.Node, static *plan.Node,
	nc int, wf, lease, mtbf float64, rep int) (serve.Config, error) {
	var fcfg *faults.Config
	if mtbf > 0 {
		fcfg = servingFaults(seedFor(c.Seed, int64(rep), 82), mtbf)
		if lease > 0 {
			fcfg.ClientMTBF = coherenceClientMTBF
			fcfg.ClientMTTR = coherenceClientMTTR
		}
	}
	ex, err := servingExec(seedFor(c.Seed, int64(rep), 83), fcfg)
	if err != nil {
		return serve.Config{}, err
	}
	cfg := serve.Config{
		Exec:        ex,
		Seed:        seedFor(c.Seed, int64(rep), 81),
		NumQueries:  c.coherenceQueries(),
		ArrivalRate: coherenceRate,
		Deadline:    coherenceDeadline,
		MPL:         coherenceMPL,
		QueueCap:    coherenceQueueCap,
		OptInst:     coherenceOptInst,
		Classes:     2,
		FreshPlans:  fresh,
		StaticPlan:  static,
	}
	cfg.Exec.Coherence = &coherence.Config{NumClients: nc, LeaseDuration: lease}
	if wf > 0 {
		mix := workload.WriteMix(ex.Catalog, seedFor(c.Seed, 84), wf)
		cfg.Updates = func(qi int) (string, int, int, bool) {
			op, ok := mix(qi)
			return op.Rel, op.Page0, op.Pages, ok
		}
	}
	return cfg, nil
}

// coherenceAxes is one cell's coordinates in the (filtered) grid.
type coherenceAxes struct {
	nc        int
	wf, lease float64
	mtbf      float64
}

// Coherence runs the cache-coherence grid and returns the goodput figures
// plus the per-cell counters table: served/write/invalidation counters,
// summed over repetitions, with the staleness oracle's verdict (stale must
// read 0 everywhere; the driver has already asserted it), and as -v detail
// the first repetition's per-client-stream attribution, which separates
// callback traffic from queries.
func (c Config) Coherence() (*Report, error) {
	fresh, static, err := c.coherencePlans()
	if err != nil {
		return nil, err
	}
	var axes []coherenceAxes
	for _, mtbf := range c.coherenceMTBFs() {
		for _, nc := range c.coherenceClients() {
			for _, lease := range c.coherenceLeases() {
				for _, wf := range c.coherenceWriteFracs() {
					if wf > 0 && lease <= 0 {
						continue // writers require a finite lease
					}
					axes = append(axes, coherenceAxes{nc: nc, wf: wf, lease: lease, mtbf: mtbf})
				}
			}
		}
	}
	vals, err := grid(len(axes), c.reps(), func(ai, rep int) (serve.Result, error) {
		ax := axes[ai]
		cfg, err := c.coherenceConfig(fresh, static, ax.nc, ax.wf, ax.lease, ax.mtbf, rep)
		if err != nil {
			return serve.Result{}, err
		}
		res, err := serve.Run(cfg)
		if err != nil {
			return serve.Result{}, err
		}
		if o := res.Coherence.Oracle; o.StaleReads != 0 || o.StaleCommittedReads != 0 {
			return serve.Result{}, fmt.Errorf("coherence: staleness oracle tripped at c=%d wf=%g lease=%g mtbf=%g rep %d: %+v",
				ax.nc, ax.wf, ax.lease, ax.mtbf, rep, o)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	report := &Report{}
	figs := map[float64]*Figure{}
	for _, mtbf := range c.coherenceMTBFs() {
		suffix := "Fault-Free"
		if mtbf > 0 {
			suffix = fmt.Sprintf("Site Crashes (MTBF %gs) + Client Crashes (finite leases)", mtbf)
		}
		figs[mtbf] = &Figure{
			ID: "coherence-goodput", Title: "Goodput vs Write Fraction, 2-Way Join; 1 Server, 50% Cached, Coherent Client Caches, " + suffix,
			XLabel: "write fraction", YLabel: "goodput[q/s]",
		}
		report.Figures = append(report.Figures, figs[mtbf])
	}
	cells := &Table{Title: "Coherence cells (summed over reps): completed/failed, updates committed/bounded,\n" +
		"invalidations, cache hit/miss pages, lease renewals, stale reads (oracle)"}
	for ai, ax := range axes {
		var comp, fail, upd, committed, bounded, inv, hit, miss, renew, stale int64
		for _, v := range vals[ai] {
			comp += v.Completed
			fail += v.Failed
			upd += v.Updates
			committed += v.UpdatesCommitted
			bounded += v.UpdatesBounded
			inv += v.Invalidations
			for _, st := range v.Streams {
				hit += st.CacheHitPages
				miss += st.CacheMissPages
				renew += st.LeaseRenewals
			}
			stale += v.Coherence.Oracle.StaleReads
		}
		row := Row{Fields: []Field{
			{"c", "c=%d", ax.nc}, {"wf", "wf=%-4g", ax.wf}, {"lease", "lease=%-3g", ax.lease}, {"mtbf", "mtbf=%-4g", ax.mtbf},
			{"comp", "comp=%-4d", comp}, {"fail", "fail=%-3d", fail}, {"upd", "upd=%-3d", outOf{committed, upd}},
			{"bexp", "bexp=%-2d", bounded}, {"inv", "inv=%-3d", inv}, {"hit", "hit=%-5d", hit},
			{"miss", "miss=%-4d", miss}, {"renew", "renew=%-3d", renew}, {"stale", "stale=%d", stale},
		}}
		for s, st := range vals[ai][0].Streams {
			row.Detail = append(row.Detail, fmt.Sprintf("stream %d: queries=%-3d updates=%-3d shed=%-2d cbmsgs=%-3d cbbytes=%d",
				s, st.Queries, st.Updates, st.ShedDown, st.CallbackMsgs, st.CallbackBytes))
		}
		cells.Rows = append(cells.Rows, row)
		if ax.lease == 0 {
			// The infinite-lease column exists only at wf=0 (writers require
			// a finite lease), so it has no curve over the write-fraction
			// axis; its numbers live in the cells table.
			continue
		}
		// wf is the innermost axis, so a series' points are consecutive.
		fig := figs[ax.mtbf]
		name := fmt.Sprintf("c=%d lease=%g", ax.nc, ax.lease)
		if n := len(fig.Series); n == 0 || fig.Series[n-1].Name != name {
			fig.Series = append(fig.Series, Series{Name: name})
		}
		s := &fig.Series[len(fig.Series)-1]
		s.Points = append(s.Points, point(ax.wf, vals[ai], func(v serve.Result) float64 { return v.Goodput }))
	}
	report.Tables = []*Table{cells}
	return report, nil
}
