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
func (c Config) ExtCrossover() (*Report, error) {
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
	return &Report{Figures: []*Figure{fig}}, nil
}

// ExtStar repeats the Figure 8 response-time sweep for star joins (one hub
// joined with nine spokes), where every join depends on the hub's growing
// intermediate result and bushy parallelism is impossible.
func (c Config) ExtStar() (*Report, error) {
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
	return &Report{Figures: []*Figure{fig}}, nil
}

// execSetting is one row of an exec-configuration ablation: its printed
// name, the optimizer seed of its run (the simulation seed is seed+1), and
// the change it makes to the engine's configuration.
type execSetting struct {
	name   string
	seed   int64
	mutate func(*exec.Config)
}

// execAblation executes the same QS 10-way bushy query over ten servers once
// per setting, each a grid cell, and reports the response times.
func (c Config) execAblation(settings []execSetting) (*Report, error) {
	cat, err := workload.BuildCatalog(4096, 10, workload.PlaceRoundRobin(10, 10))
	if err != nil {
		return nil, err
	}
	q := workload.ChainQuery(10, workload.Moderate)
	rts, err := grid(len(settings), 1, func(i, _ int) (float64, error) {
		st := settings[i]
		r := run{
			cat: cat, q: q,
			policy: plan.QueryShipping, metric: cost.MetricResponseTime, maxAlloc: false,
			next:    workload.Next(workload.Moderate),
			optSeed: st.seed, simSeed: st.seed + 1,
		}
		optRes, err := r.optimize()
		if err != nil {
			return 0, err
		}
		cfg := r.execConfig()
		st.mutate(&cfg)
		res, err := exec.Run(cfg, optRes.Plan)
		return res.ResponseTime, err
	})
	if err != nil {
		return nil, err
	}
	t := &Table{}
	for i, st := range settings {
		t.Rows = append(t.Rows, settingRow(st.name, rts[i][0]))
	}
	return &Report{Tables: []*Table{t}}, nil
}

// settingRow is an ablation's table line: a setting and its response time.
func settingRow(name string, rt float64) Row {
	return Row{Fields: []Field{{"setting", "%-24s", name}, {"rt", "%8.2fs", rt}}}
}

// AblationLookahead varies the network producer's lookahead depth. The paper
// fixes it at one page; deeper buffers trade memory for pipeline slack.
func (c Config) AblationLookahead() (*Report, error) {
	var settings []execSetting
	for _, la := range []int{1, 4, 16} {
		settings = append(settings, execSetting{
			name: fmt.Sprintf("lookahead=%d", la), seed: seedFor(c.Seed, int64(la), 30),
			mutate: func(cfg *exec.Config) { cfg.Params.LookaheadPages = la },
		})
	}
	return c.execAblation(settings)
}

// AblationWriteCache compares the disk's write-back cache with batched
// destaging against write-through. Write-through makes every hybrid-hash
// partition write pay a full mechanical access, which is what the naive
// model would charge.
func (c Config) AblationWriteCache() (*Report, error) {
	seed := seedFor(c.Seed, 31)
	return c.execAblation([]execSetting{
		{"write-back", seed, func(*exec.Config) {}},
		{"write-through", seed, func(cfg *exec.Config) { cfg.Params.Disk.WriteCachePages = 0 }},
	})
}

// AblationElevator compares SCAN (elevator) disk scheduling against FIFO
// under external load, where request reordering matters most.
func (c Config) AblationElevator() (*Report, error) {
	seed := seedFor(c.Seed, 32)
	loaded := func(fifo bool) func(*exec.Config) {
		return func(cfg *exec.Config) {
			cfg.Params.Disk.FIFOScheduling = fifo
			cfg.ServerLoad = map[catalog.SiteID]float64{0: 40}
		}
	}
	return c.execAblation([]execSetting{{"elevator", seed, loaded(false)}, {"fifo", seed, loaded(true)}})
}

// AblationCommutativity measures the optimizer's plan quality for the HiSel
// 10-way join with and without the join-commutativity move. Without it the
// optimizer cannot choose the build side of a hash join, which matters when
// input sizes differ — exactly the HiSel situation.
func (c Config) AblationCommutativity() (*Report, error) {
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
	t := &Table{}
	for ci, comm := range settings {
		name := "with commutativity"
		if !comm {
			name = "paper move set only"
		}
		t.Rows = append(t.Rows, settingRow(name, point(0, vals[ci], self).Mean))
	}
	return &Report{Tables: []*Table{t}}, nil
}

// ExtAggregate measures how a grouped aggregation shifts the policy
// tradeoff: with few groups, query-shipping (which can aggregate at the
// server) ships almost nothing, while data-shipping still faults all base
// data — an effect the paper's operator framework supports (footnote 4) but
// never measures.
func (c Config) ExtAggregate() (*Report, error) {
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
	return &Report{Figures: []*Figure{fig}}, nil
}

// ExtMultiQuery validates the paper's modeling shortcut: "The impact of
// multiple clients in the system is modeled by placing additional load on
// the server resources" (§3.2.1). It measures a QS query's response time
// (a) alone, (b) alongside k-1 real concurrent copies of itself, and (c)
// alone but with an external random-read load approximating those copies.
func (c Config) ExtMultiQuery() (*Report, error) {
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
	type cell struct{ real, approx float64 }
	vals, err := grid(len(ks), 1, func(ki, _ int) (cell, error) {
		k := ks[ki]
		r, err := buildRun()
		if err != nil {
			return cell{}, err
		}
		optRes, err := r.optimize()
		if err != nil {
			return cell{}, err
		}

		// (b) k real copies submitted together; report the mean per-query RT.
		queries := make([]exec.QueryRun, k)
		for i := range queries {
			queries[i] = exec.QueryRun{Plan: optRes.Plan.Clone()}
		}
		multi, err := exec.RunMulti(r.execConfig(), queries)
		if err != nil {
			return cell{}, err
		}
		var sum float64
		for _, qr := range multi.PerQuery {
			sum += qr.ResponseTime
		}

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
		return cell{real: sum / float64(k), approx: res.ResponseTime}, err
	})
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series,
		curve("real concurrent queries", axis(ks, 1), vals, func(v cell) float64 { return v.real }),
		curve("load approximation", axis(ks, 1), vals, func(v cell) float64 { return v.approx }))
	return &Report{Figures: []*Figure{fig}}, nil
}
