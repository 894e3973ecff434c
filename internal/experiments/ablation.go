package experiments

// Extension and ablation studies beyond the paper's figures. The extensions
// probe claims the paper makes in prose (the crossover's sensitivity to join
// selectivity, §4.2.1; other join-graph shapes, §3.3); the ablations
// quantify design choices of this reproduction's substrate that DESIGN.md
// calls out: pipeline lookahead depth, the disk's write-back cache, elevator
// scheduling, and the optimizer's commutativity move.

import (
	"fmt"

	"hybridship/internal/catalog"
	"hybridship/internal/cost"
	"hybridship/internal/exec"
	"hybridship/internal/opt"
	"hybridship/internal/plan"
	"hybridship/internal/workload"
)

// ExtCrossover measures how the DS/QS communication crossover of Figure 2
// moves as the join result shrinks: with a result of rho*|R| pages, DS's
// traffic still falls from 2|R| to 0 with caching, but QS's flat line drops
// to rho*|R|, pushing the crossover toward higher cached fractions — the
// paper's §4.2.1 remark, measured.
func (c Config) ExtCrossover() (*Figure, error) {
	fig := &Figure{
		ID:     "Extension: crossover vs selectivity",
		Title:  "Pages Sent, 2-Way Join, Vary Caching and Join Result Size",
		XLabel: "cached[%]",
		YLabel: "pages-sent",
	}
	type spec struct {
		rho float64
		pol plan.Policy
	}
	var specs []spec
	for _, rho := range []float64{0.2, 0.5, 1.0} {
		for _, pol := range []plan.Policy{plan.DataShipping, plan.QueryShipping} {
			specs = append(specs, spec{rho, pol})
		}
	}
	sweep := c.cachingSweep()
	vals, err := plane(len(specs), len(sweep), c.reps(), func(si, xi, rep int) (float64, error) {
		sp := specs[si]
		q, next := workload.TwoWayScaled(sp.rho)
		cat, err := twoWayCatalog(1, sweep[xi])
		if err != nil {
			return 0, err
		}
		r := run{
			cat: cat, q: q,
			policy: sp.pol, metric: cost.MetricPagesSent, maxAlloc: true,
			next:    next,
			optSeed: seedFor(c.Seed, int64(sp.pol), int64(xi), int64(rep), 20),
			simSeed: seedFor(c.Seed, int64(xi), int64(rep), 21),
		}
		res, err := r.measure()
		return float64(res.PagesSent), err
	})
	if err != nil {
		return nil, err
	}
	for si, sp := range specs {
		name := fmt.Sprintf("%s rho=%.1f", policyNames[sp.pol], sp.rho)
		fig.Series = append(fig.Series, curve(name, axis(sweep, 100), vals[si], self))
	}
	return fig, nil
}

// ExtStar repeats the Figure 8 response-time sweep for star joins (one hub
// joined with nine spokes), where every join depends on the hub's growing
// intermediate result and bushy parallelism is impossible.
func (c Config) ExtStar() (*Figure, error) {
	fig := &Figure{
		ID:     "Extension: star join",
		Title:  "Response Time [s], 10-Way Star Join, Vary Servers, Min Alloc",
		XLabel: "servers",
		YLabel: "response-time",
	}
	q := workload.StarQuery(10)
	next := workload.Next(workload.Moderate)
	sweep := c.serverSweep()
	vals, err := plane(len(allPolicies), len(sweep), c.reps(), func(pi, ki, rep int) (float64, error) {
		k := sweep[ki]
		rng := newRNG(seedFor(c.Seed, int64(k), int64(rep), 22))
		cat, err := workload.BuildCatalog(4096, k, workload.PlaceRandom(rng, 10, k))
		if err != nil {
			return 0, err
		}
		r := run{
			cat: cat, q: q,
			policy: allPolicies[pi], metric: cost.MetricResponseTime, maxAlloc: false,
			next:    next,
			optSeed: seedFor(c.Seed, int64(allPolicies[pi]), int64(k), int64(rep), 23),
			simSeed: seedFor(c.Seed, int64(k), int64(rep), 24),
		}
		res, err := r.measure()
		return res.ResponseTime, err
	})
	if err != nil {
		return nil, err
	}
	for pi, pol := range allPolicies {
		fig.Series = append(fig.Series, curve(policyNames[pol], axis(sweep, 1), vals[pi], self))
	}
	return fig, nil
}

// ablationRun executes the same QS 10-way bushy query over ten servers with
// a tweakable exec configuration, returning the response time.
func (c Config) ablationRun(mutate func(*exec.Config), seed int64) (float64, error) {
	cat, err := workload.BuildCatalog(4096, 10, workload.PlaceRoundRobin(10, 10))
	if err != nil {
		return 0, err
	}
	q := workload.ChainQuery(10, workload.Moderate)
	r := run{
		cat: cat, q: q,
		policy: plan.QueryShipping, metric: cost.MetricResponseTime, maxAlloc: false,
		next:    workload.Next(workload.Moderate),
		optSeed: seed, simSeed: seed + 1,
	}
	optRes, err := r.optimize()
	if err != nil {
		return 0, err
	}
	cfg := r.execConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := exec.Run(cfg, optRes.Plan)
	if err != nil {
		return 0, err
	}
	return res.ResponseTime, nil
}

// AblationResult is one knob setting and its measured response time.
type AblationResult struct {
	Setting      string
	ResponseTime float64
}

// ablationReport is a table of one response time per setting.
func ablationReport(rows []AblationResult) *Report {
	t := &Table{}
	for _, r := range rows {
		t.Rows = append(t.Rows, Row{Fields: []Field{
			{"setting", "%-24s", r.Setting}, {"rt", "%8.2fs", r.ResponseTime},
		}})
	}
	return &Report{Tables: []*Table{t}}
}

// AblationLookahead varies the network producer's lookahead depth. The paper
// fixes it at one page; deeper buffers trade memory for pipeline slack.
func (c Config) AblationLookahead() ([]AblationResult, error) {
	las := []int{1, 4, 16}
	out := make([]AblationResult, len(las))
	err := parallelFor(len(las), func(i int) error {
		la := las[i]
		rt, err := c.ablationRun(func(cfg *exec.Config) {
			cfg.Params.LookaheadPages = la
		}, seedFor(c.Seed, int64(la), 30))
		if err != nil {
			return err
		}
		out[i] = AblationResult{fmt.Sprintf("lookahead=%d", la), rt}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AblationWriteCache compares the disk's write-back cache with batched
// destaging against write-through. Write-through makes every hybrid-hash
// partition write pay a full mechanical access, which is what the naive
// model would charge.
func (c Config) AblationWriteCache() ([]AblationResult, error) {
	settings := []bool{true, false}
	out := make([]AblationResult, len(settings))
	err := parallelFor(len(settings), func(i int) error {
		wb := settings[i]
		name := "write-back"
		if !wb {
			name = "write-through"
		}
		rt, err := c.ablationRun(func(cfg *exec.Config) {
			if !wb {
				cfg.Params.Disk.WriteCachePages = 0
			}
		}, seedFor(c.Seed, 31))
		if err != nil {
			return err
		}
		out[i] = AblationResult{name, rt}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AblationElevator compares SCAN (elevator) disk scheduling against FIFO
// under external load, where request reordering matters most.
func (c Config) AblationElevator() ([]AblationResult, error) {
	settings := []bool{false, true}
	out := make([]AblationResult, len(settings))
	err := parallelFor(len(settings), func(i int) error {
		fifo := settings[i]
		name := "elevator"
		if fifo {
			name = "fifo"
		}
		rt, err := c.ablationRun(func(cfg *exec.Config) {
			cfg.Params.Disk.FIFOScheduling = fifo
			cfg.ServerLoad = map[catalog.SiteID]float64{0: 40}
		}, seedFor(c.Seed, 32))
		if err != nil {
			return err
		}
		out[i] = AblationResult{name, rt}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AblationCommutativity measures the optimizer's plan quality for the HiSel
// 10-way join with and without the join-commutativity move. Without it the
// optimizer cannot choose the build side of a hash join, which matters when
// input sizes differ — exactly the HiSel situation.
func (c Config) AblationCommutativity() ([]AblationResult, error) {
	q := workload.ChainQuery(10, workload.HiSel)
	cat, err := workload.BuildCatalog(4096, 4, workload.PlaceRoundRobin(10, 4))
	if err != nil {
		return nil, err
	}
	settings := []bool{true, false}
	vals, err := grid(len(settings), c.reps(), func(ci, rep int) (float64, error) {
		model := &cost.Model{Params: cost.DefaultParams(), Catalog: cat, Query: q}
		opts := opt.DefaultOptions(plan.HybridShipping, cost.MetricResponseTime,
			seedFor(c.Seed, int64(rep), 33))
		opts.Commutativity = settings[ci]
		optRes, err := opt.New(model, opts).Optimize()
		if err != nil {
			return 0, err
		}
		r := run{
			cat: cat, q: q, maxAlloc: false,
			next:    workload.Next(workload.HiSel),
			simSeed: seedFor(c.Seed, int64(rep), 34),
		}
		res, err := exec.Run(r.execConfig(), optRes.Plan)
		return res.ResponseTime, err
	})
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	for ci, comm := range settings {
		name := "with commutativity"
		if !comm {
			name = "paper move set only"
		}
		out = append(out, AblationResult{name, point(0, vals[ci], self).Mean})
	}
	return out, nil
}

// ExtAggregate measures how a grouped aggregation shifts the policy
// tradeoff: with few groups, query-shipping (which can aggregate at the
// server) ships almost nothing, while data-shipping still faults all base
// data — an effect the paper's operator framework supports (footnote 4) but
// never measures.
func (c Config) ExtAggregate() (*Figure, error) {
	fig := &Figure{
		ID:     "Extension: aggregation",
		Title:  "Pages Sent, 2-Way Join + GROUP BY, 1 Server, Vary Groups",
		XLabel: "groups",
		YLabel: "pages-sent",
	}
	groupSweep := []int{1, 100, 10000}
	vals, err := plane(len(allPolicies), len(groupSweep), c.reps(), func(pi, gi, rep int) (float64, error) {
		cat, err := twoWayCatalog(1, 0)
		if err != nil {
			return 0, err
		}
		q := workload.ChainQuery(2, workload.Moderate)
		q.GroupBy = groupSweep[gi]
		r := run{
			cat: cat, q: q,
			policy: allPolicies[pi], metric: cost.MetricPagesSent, maxAlloc: true,
			next:    workload.Next(workload.Moderate),
			optSeed: seedFor(c.Seed, int64(allPolicies[pi]), int64(gi), int64(rep), 40),
			simSeed: seedFor(c.Seed, int64(gi), int64(rep), 41),
		}
		res, err := r.measure()
		return float64(res.PagesSent), err
	})
	if err != nil {
		return nil, err
	}
	for pi, pol := range allPolicies {
		fig.Series = append(fig.Series, curve(policyNames[pol], axis(groupSweep, 1), vals[pi], self))
	}
	return fig, nil
}

// ExtMultiQuery validates the paper's modeling shortcut: "The impact of
// multiple clients in the system is modeled by placing additional load on
// the server resources" (§3.2.1). It measures a QS query's response time
// (a) alone, (b) alongside k-1 real concurrent copies of itself, and (c)
// alone but with an external random-read load approximating those copies.
func (c Config) ExtMultiQuery() (*Figure, error) {
	fig := &Figure{
		ID:     "Extension: multi-query",
		Title:  "Response Time [s], 2-Way QS Join, Real Concurrency vs Load Approximation",
		XLabel: "concurrent queries",
		YLabel: "response-time",
	}
	buildRun := func() (run, error) {
		cat, err := twoWayCatalog(1, 0)
		if err != nil {
			return run{}, err
		}
		return run{
			cat: cat, q: workload.ChainQuery(2, workload.Moderate),
			policy: plan.QueryShipping, metric: cost.MetricResponseTime,
			maxAlloc: false, next: workload.Next(workload.Moderate),
			optSeed: seedFor(c.Seed, 50), simSeed: seedFor(c.Seed, 51),
		}, nil
	}

	ks := []int{1, 2, 4}
	real := Series{Name: "real concurrent queries", Points: make([]Point, len(ks))}
	approx := Series{Name: "load approximation", Points: make([]Point, len(ks))}
	err := parallelFor(len(ks), func(ki int) error {
		k := ks[ki]
		r, err := buildRun()
		if err != nil {
			return err
		}
		optRes, err := r.optimize()
		if err != nil {
			return err
		}

		// (b) k real copies submitted together; report the mean per-query RT.
		queries := make([]exec.QueryRun, k)
		for i := range queries {
			queries[i] = exec.QueryRun{Plan: optRes.Plan.Clone()}
		}
		multi, err := exec.RunMulti(r.execConfig(), queries)
		if err != nil {
			return err
		}
		var sum float64
		for _, qr := range multi.PerQuery {
			sum += qr.ResponseTime
		}
		real.Points[ki] = Point{X: float64(k), Mean: sum / float64(k), N: k}

		// (c) one copy plus an external load approximating the k-1 others.
		// Real concurrent queries are closed-loop: they self-throttle as the
		// disk saturates. An open-loop random-read stream does not, so the
		// approximating rate must stay below disk capacity: give the k-1
		// phantom queries their fair share of an ~80 req/s disk, i.e.
		// 80*(k-1)/k requests per second.
		cfg := r.execConfig()
		if k > 1 {
			cfg.ServerLoad = map[catalog.SiteID]float64{0: 80 * float64(k-1) / float64(k)}
		}
		res, err := exec.Run(cfg, optRes.Plan)
		if err != nil {
			return err
		}
		approx.Points[ki] = Point{X: float64(k), Mean: res.ResponseTime, N: 1}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series, real, approx)
	return fig, nil
}
