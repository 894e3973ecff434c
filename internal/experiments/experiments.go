// Package experiments reproduces the evaluation of the paper: every figure
// of §4 (the data/query/hybrid-shipping tradeoff study) and §5 (static vs
// 2-step optimization), using the randomized optimizer to pick plans and the
// detailed simulator to measure them, exactly as the original study did.
//
// Each figure driver returns a Figure holding one series per policy (or
// compiled plan flavor) with means and 90% confidence intervals over
// repeated runs; the fault, serving and scaling grids return a Report, the
// one output shape every experiment prints through (report.go).
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"hybridship/internal/catalog"
	"hybridship/internal/cost"
	"hybridship/internal/exec"
	"hybridship/internal/faults"
	"hybridship/internal/opt"
	"hybridship/internal/plan"
	"hybridship/internal/query"
	"hybridship/internal/seedmix"
	"hybridship/internal/workload"
)

// Config controls experiment scale.
type Config struct {
	// Reps is the number of repetitions per data point (default 5).
	Reps int
	// Seed drives all randomness (optimizer, placements, load arrivals).
	Seed int64
	// Quick thins the sweep (fewer x values) for fast test runs.
	Quick bool
}

func (c Config) reps() int {
	if c.Reps <= 0 {
		return 5
	}
	return c.Reps
}

// Point is one measured data point: mean and 90% confidence half-width.
type Point struct {
	X    float64
	Mean float64
	CI   float64
	N    int
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a reproduced table/figure of the paper.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// String renders the figure as the rows the paper reports: one line per x
// value, one column per series, "mean ±ci".
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %22s", s.Name)
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(&b, "%-12g", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			p := s.Points[i]
			fmt.Fprintf(&b, " %14.2f ±%6.2f", p.Mean, p.CI)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// seedFor derives a deterministic sub-seed from experiment coordinates. The
// mixing itself lives in internal/seedmix — the one package allowed to
// contain seed arithmetic — as Fold, the scheme every committed figure was
// generated under.
func seedFor(base int64, parts ...int64) int64 {
	return seedmix.Fold(base, parts...)
}

// run describes one optimize-then-simulate execution.
type run struct {
	cat      *catalog.Catalog
	q        *query.Query
	policy   plan.Policy
	metric   cost.Metric
	maxAlloc bool
	load     map[catalog.SiteID]float64 // req/s of external random reads
	next     func(string, int64) int64
	optSeed  int64
	simSeed  int64
	leftDeep bool
	faults   *faults.Config // fault environment of the execution; nil = none
}

// costParams builds the optimizer's view, translating external load into
// predicted disk utilization so a response-time optimizer can react to it.
func (r run) costParams() cost.Params {
	p := cost.DefaultParams()
	p.MaxAlloc = r.maxAlloc
	if len(r.load) > 0 {
		p.ServerDiskUtil = make(map[catalog.SiteID]float64, len(r.load))
		for s, rate := range r.load {
			u := rate * p.RandPageTime
			if u > 0.95 {
				u = 0.95
			}
			p.ServerDiskUtil[s] = u
		}
	}
	return p
}

func (r run) execConfig() exec.Config {
	params := exec.DefaultParams()
	params.MaxAlloc = r.maxAlloc
	return exec.Config{
		Params:     params,
		Catalog:    r.cat,
		Query:      r.q,
		Next:       r.next,
		ServerLoad: r.load,
		Seed:       r.simSeed,
		Faults:     r.faults,
	}
}

// optimize runs full two-phase optimization in r's policy space.
func (r run) optimize() (opt.Result, error) {
	model := &cost.Model{Params: r.costParams(), Catalog: r.cat, Query: r.q}
	opts := opt.DefaultOptions(r.policy, r.metric, r.optSeed)
	opts.LeftDeepOnly = r.leftDeep
	return opt.New(model, opts).Optimize()
}

// measure optimizes and then executes the plan in the simulator.
func (r run) measure() (exec.Result, error) {
	res, err := r.optimize()
	if err != nil {
		return exec.Result{}, err
	}
	return exec.Run(r.execConfig(), res.Plan)
}

// executePlan runs a pre-compiled plan as-is (static execution).
func (r run) executePlan(p *plan.Node) (exec.Result, error) {
	return exec.Run(r.execConfig(), p)
}

// siteSelect re-annotates a compiled plan against r's (true) catalog without
// changing the join order — the runtime half of 2-step optimization.
func (r run) siteSelect(p *plan.Node) (*plan.Node, error) {
	model := &cost.Model{Params: r.costParams(), Catalog: r.cat, Query: r.q}
	opts := opt.DefaultOptions(r.policy, r.metric, r.optSeed)
	opts.FixedJoinOrder = true
	res, err := opt.New(model, opts).OptimizeFrom(p)
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// metricOf extracts the figure's y value from a simulated execution.
func metricOf(m cost.Metric, res exec.Result) float64 {
	if m == cost.MetricPagesSent {
		return float64(res.PagesSent)
	}
	return res.ResponseTime
}

// cachingSweep returns the x axis of the 2-way-join figures.
func (c Config) cachingSweep() []float64 {
	if c.Quick {
		return []float64{0, 0.5, 1.0}
	}
	return []float64{0, 0.25, 0.5, 0.75, 1.0}
}

// serverSweep returns the x axis of the 10-way-join figures.
func (c Config) serverSweep() []int {
	if c.Quick {
		return []int{1, 2, 5, 10}
	}
	return []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
}

var policyNames = map[plan.Policy]string{
	plan.DataShipping:   "DS",
	plan.QueryShipping:  "QS",
	plan.HybridShipping: "HY",
}

var allPolicies = []plan.Policy{plan.DataShipping, plan.QueryShipping, plan.HybridShipping}

// twoWayCatalog builds the 2-way join's catalog: both relations on server
// 0 of servers, cachedFrac of each cached at the client.
func twoWayCatalog(servers int, cachedFrac float64) (*catalog.Catalog, error) {
	cat, err := workload.BuildCatalog(4096, servers, workload.PlaceRoundRobin(2, 1))
	if err != nil {
		return nil, err
	}
	if err := workload.CacheAllFraction(cat, cachedFrac); err != nil {
		return nil, err
	}
	return cat, nil
}

// twoWayFigure runs the common Figure 2/3/5 shape: a 2-way join against one
// server, sweeping client caching, one series per policy.
func (c Config) twoWayFigure(id, title string, metric cost.Metric, maxAlloc bool,
	load map[catalog.SiteID]float64) (*Figure, error) {
	fig := &Figure{
		ID: id, Title: title,
		XLabel: "cached[%]",
		YLabel: metric.String(),
	}
	sweep := c.cachingSweep()
	vals, err := plane(len(allPolicies), len(sweep), c.reps(), func(pi, xi, rep int) (float64, error) {
		cat, err := twoWayCatalog(1, sweep[xi])
		if err != nil {
			return 0, err
		}
		r := run{
			cat: cat, q: workload.ChainQuery(2, workload.Moderate),
			policy: allPolicies[pi], metric: metric, maxAlloc: maxAlloc, load: load,
			next:    workload.Next(workload.Moderate),
			optSeed: seedFor(c.Seed, int64(allPolicies[pi]), int64(xi), int64(rep), 1),
			simSeed: seedFor(c.Seed, int64(xi), int64(rep), 2),
		}
		res, err := r.measure()
		return metricOf(metric, res), err
	})
	if err != nil {
		return nil, err
	}
	for pi, pol := range allPolicies {
		fig.Series = append(fig.Series, curve(policyNames[pol], axis(sweep, 100), vals[pi], self))
	}
	return fig, nil
}

// tenWayFigure runs the common Figure 6/7/8 shape: a 10-way chain join with
// relations placed randomly over a growing server population.
func (c Config) tenWayFigure(id, title string, metric cost.Metric, maxAlloc bool,
	cachedRels int) (*Figure, error) {
	fig := &Figure{
		ID: id, Title: title,
		XLabel: "servers",
		YLabel: metric.String(),
	}
	sweep := c.serverSweep()
	// A cell is one (servers, rep) placement; the three policies run inside
	// it, one measurement each, because they share that random placement
	// (paired runs).
	vals, err := grid(len(sweep), c.reps(), func(ki, rep int) ([]float64, error) {
		k := sweep[ki]
		rng := rand.New(rand.NewSource(seedFor(c.Seed, int64(k), int64(rep), 3)))
		placement := workload.PlaceRandom(rng, 10, k)
		out := make([]float64, len(allPolicies))
		for pi, pol := range allPolicies {
			cat, err := workload.BuildCatalog(4096, k, placement)
			if err != nil {
				return nil, err
			}
			if cachedRels > 0 {
				if err := workload.CacheFirstK(cat, cachedRels); err != nil {
					return nil, err
				}
			}
			r := run{
				cat: cat, q: workload.ChainQuery(10, workload.Moderate),
				policy: pol, metric: metric, maxAlloc: maxAlloc,
				next:    workload.Next(workload.Moderate),
				optSeed: seedFor(c.Seed, int64(pol), int64(k), int64(rep), 4),
				simSeed: seedFor(c.Seed, int64(k), int64(rep), 5),
			}
			res, err := r.measure()
			if err != nil {
				return nil, err
			}
			out[pi] = metricOf(metric, res)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, pol := range allPolicies {
		fig.Series = append(fig.Series, curve(policyNames[pol], axis(sweep, 1), vals,
			func(v []float64) float64 { return v[pi] }))
	}
	return fig, nil
}

// Fig2 reproduces "Pages Sent, 2-Way Join; 1 Server, Vary Caching".
func (c Config) Fig2() (*Figure, error) {
	return c.twoWayFigure("Figure 2", "Pages Sent, 2-Way Join, 1 Server, Vary Caching",
		cost.MetricPagesSent, true, nil)
}

// Fig3 reproduces "Resp. Time, 2-Way Join; 1 S., Vary Caching, No Load,
// Min. Alloc".
func (c Config) Fig3() (*Figure, error) {
	return c.twoWayFigure("Figure 3", "Response Time [s], 2-Way Join, Vary Caching, No Load, Min Alloc",
		cost.MetricResponseTime, false, nil)
}

// Fig4 reproduces "Resp. Time, DS, 2-Way Join; 1 S., Vary Load & Caching,
// Min. Alloc": the data-shipping policy only, one series per server load.
func (c Config) Fig4() (*Figure, error) {
	fig := &Figure{
		ID:     "Figure 4",
		Title:  "Response Time [s], DS, 2-Way Join, Vary Load & Caching, Min Alloc",
		XLabel: "cached[%]",
		YLabel: "response-time",
	}
	loads := []float64{0, 40, 60, 70}
	sweep := c.cachingSweep()
	vals, err := plane(len(loads), len(sweep), c.reps(), func(li, xi, rep int) (float64, error) {
		var load map[catalog.SiteID]float64
		if loads[li] > 0 {
			load = map[catalog.SiteID]float64{0: loads[li]}
		}
		cat, err := twoWayCatalog(1, sweep[xi])
		if err != nil {
			return 0, err
		}
		r := run{
			cat: cat, q: workload.ChainQuery(2, workload.Moderate),
			policy: plan.DataShipping, metric: cost.MetricResponseTime,
			maxAlloc: false, load: load,
			next:    workload.Next(workload.Moderate),
			optSeed: seedFor(c.Seed, int64(li), int64(xi), int64(rep), 6),
			simSeed: seedFor(c.Seed, int64(li), int64(xi), int64(rep), 7),
		}
		res, err := r.measure()
		return res.ResponseTime, err
	})
	if err != nil {
		return nil, err
	}
	for li, reqs := range loads {
		fig.Series = append(fig.Series, curve(fmt.Sprintf("%g req/sec", reqs), axis(sweep, 100), vals[li], self))
	}
	return fig, nil
}

// Fig5 reproduces "Resp. Time, 2-Way Join; 1 Server, Vary Caching, No Load,
// Max. Alloc".
func (c Config) Fig5() (*Figure, error) {
	return c.twoWayFigure("Figure 5", "Response Time [s], 2-Way Join, Vary Caching, No Load, Max Alloc",
		cost.MetricResponseTime, true, nil)
}

// Fig6 reproduces "Pages Sent, 10-Way Join; Varying Servers, No Caching".
func (c Config) Fig6() (*Figure, error) {
	return c.tenWayFigure("Figure 6", "Pages Sent, 10-Way Join, Vary Servers, No Caching",
		cost.MetricPagesSent, true, 0)
}

// Fig7 reproduces "Pages Sent, 10-Way Join; Vary Servers, 5 Relations
// Cached".
func (c Config) Fig7() (*Figure, error) {
	return c.tenWayFigure("Figure 7", "Pages Sent, 10-Way Join, Vary Servers, 5 Relations Cached",
		cost.MetricPagesSent, true, 5)
}

// Fig8 reproduces "Resp. Time, 10-Way Join; Vary Servers, No Caching, Min.
// Alloc".
func (c Config) Fig8() (*Figure, error) {
	return c.tenWayFigure("Figure 8", "Response Time [s], 10-Way Join, Vary Servers, No Caching, Min Alloc",
		cost.MetricResponseTime, false, 0)
}

// newRNG builds a deterministic rand.Rand from a derived seed.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
