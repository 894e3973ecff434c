package experiments

import (
	"fmt"

	"hybridship/internal/cost"
	"hybridship/internal/exec"
	"hybridship/internal/faults"
	"hybridship/internal/plan"
	"hybridship/internal/serve"
	"hybridship/internal/workload"
)

// The overload grid puts the serving layer (internal/serve) through the
// regime the paper never reaches: offered load past saturation, with and
// without site crashes, for all three shipping policies — each run twice,
// once with the full serving layer (admission control, deadlines, circuit
// breakers, retry budget, graceful degradation) and once with it disabled
// (open loop, unbounded concurrency, always-fresh optimization).
//
// The workload is the chaos grid's: the 2-way join, one server, half the
// pages client-cached — executed with maximum memory so concurrent joins
// never fight over spill space. Per policy two query classes are compiled
// (different optimizer seeds) plus the cheap static QS fallback plan the
// degradation ladder bottoms out on.
//
// The x axis is the offered-load multiplier: the arrival rate is mult ×
// MPL/soloRT, where soloRT is the policy plan's fault-free solo response
// time — an (intentionally optimistic) estimate of the service capacity.
// Three figures come out per MTBF level:
//
//	overload-goodput: completed queries per virtual second. With the layer
//	  on it must plateau at capacity past saturation; with it off the open
//	  loop drowns in its own concurrency (optimizer CPU, fetch-timeout
//	  retry storms, expired deadlines) and goodput collapses.
//	overload-p50 / overload-p99: response time (arrival → last tuple) of
//	  completed queries.
//
// Runs are paired like the chaos grid: for a given (load, MTBF, rep) cell
// every policy and both modes see the same arrival-process seed, the same
// simulation seed, and the same fault stream.

// Overload grid constants; see DESIGN.md §10 for the derivations.
const (
	overloadMPL       = 2    // concurrent executing queries when enabled
	overloadQueueCap  = 4    // bounded accept queue
	overloadDeadlineX = 20.0 // per-query deadline, multiples of soloRT
	overloadOptInst   = 50e6 // fresh-optimization client CPU: the off-mode chokepoint
	overloadBudget    = 0.1  // fleet retry budget: retries ≤ 10% of requests
	overloadClasses   = 2
)

// overloadSweep returns the offered-load multipliers of the x axis.
func (c Config) overloadSweep() []float64 {
	if c.Quick {
		return []float64{1, 2}
	}
	return []float64{0.5, 1, 1.5, 2, 3}
}

// overloadMTBFs returns the site-MTBF levels (0 = fault-free).
func (c Config) overloadMTBFs() []float64 {
	return []float64{0, 16}
}

// overloadPolicy is one policy's compiled artifacts, shared by every cell.
type overloadPolicy struct {
	pol    plan.Policy
	plans  []*plan.Node // one per query class
	static *plan.Node   // the QS fallback
	soloRT float64      // fault-free solo response time of the class-0 plan
}

// overloadCompile compiles every policy's class plans and calibrates their
// solo response times, once, before the grid fans out.
func (c Config) overloadCompile() ([]overloadPolicy, error) {
	out := make([]overloadPolicy, len(allPolicies))
	var static *plan.Node
	for pi, pol := range allPolicies {
		solo, err := servingExec(seedFor(c.Seed, 72), nil)
		if err != nil {
			return nil, err
		}
		op := overloadPolicy{pol: pol}
		for class := 0; class < overloadClasses; class++ {
			r := run{
				cat: solo.Catalog, q: workload.ChainQuery(2, workload.Moderate),
				policy: pol, metric: cost.MetricResponseTime, maxAlloc: true,
				next:    workload.Next(workload.Moderate),
				optSeed: seedFor(c.Seed, int64(pol), int64(class), 70),
			}
			res, err := r.optimize()
			if err != nil {
				return nil, err
			}
			op.plans = append(op.plans, res.Plan)
		}
		res, err := exec.Run(solo, op.plans[0])
		if err != nil {
			return nil, err
		}
		op.soloRT = res.ResponseTime
		out[pi] = op
		if pol == plan.QueryShipping {
			static = op.plans[0]
		}
	}
	for i := range out {
		out[i].static = static
	}
	return out, nil
}

// servingExec is the serving grids' execution config: the 2-way join over
// twoWayCatalog(1, 0.5), with maximum memory so concurrent joins never
// fight over spill space.
func servingExec(seed int64, fcfg *faults.Config) (exec.Config, error) {
	cat, err := twoWayCatalog(1, 0.5)
	if err != nil {
		return exec.Config{}, err
	}
	params := exec.DefaultParams()
	params.MaxAlloc = true
	return exec.Config{
		Params:  params,
		Catalog: cat,
		Query:   workload.ChainQuery(2, workload.Moderate),
		Next:    workload.Next(workload.Moderate),
		Seed:    seed,
		Faults:  fcfg,
	}, nil
}

// servingFaults is the serving grids' fault environment: fetch timeouts and
// bounded retries with backoff, plus site crashes when mtbf > 0.
func servingFaults(seed int64, mtbf float64) *faults.Config {
	fcfg := &faults.Config{
		Seed:         seed,
		FetchTimeout: 2,
		MaxRetries:   200,
		BackoffBase:  0.1,
		BackoffMax:   1,
	}
	if mtbf > 0 {
		fcfg.SiteMTBF = mtbf
		fcfg.SiteMTTR = chaosMTTR
	}
	return fcfg
}

// serveConfig is the full serving layer over op's plans: n queries offered
// at mult times the estimated saturation rate, MPL/soloRT.
func (op overloadPolicy) serveConfig(ex exec.Config, seed int64, n int, mult float64) serve.Config {
	satRate := overloadMPL / op.soloRT
	return serve.Config{
		Exec:        ex,
		Seed:        seed,
		NumQueries:  n,
		ArrivalRate: mult * satRate,
		Deadline:    overloadDeadlineX * op.soloRT,
		MPL:         overloadMPL,
		QueueCap:    overloadQueueCap,
		RateLimit:   1.25 * satRate,
		Burst:       4,
		Breaker:     serve.BreakerParams{Threshold: 3, Cooldown: 1},
		RetryBudget: overloadBudget,
		DegradeHi:   3, DegradeLo: 1,
		StaticHi: 5, StaticLo: 2,
		OptInst:    overloadOptInst,
		Classes:    overloadClasses,
		FreshPlans: op.plans,
		StaticPlan: op.static,
	}
}

// overloadQueries is the offered stream length per cell. The count scales
// with the load multiplier so every cell offers load over the same virtual
// window: goodput comparisons then share their denominator, instead of the
// high-rate cells ending early and over-weighting the drain tail.
func (c Config) overloadQueries(mult float64) int {
	base := 96.0
	if c.Quick {
		base = 64
	}
	return int(base*mult + 0.5)
}

// overloadCell runs one (policy, mode, load, MTBF, rep) cell.
func (c Config) overloadCell(op overloadPolicy, disabled bool, mult, mtbf float64, xi, mi, rep int) (serve.Result, error) {
	ex, err := servingExec(seedFor(c.Seed, int64(xi), int64(mi), int64(rep), 72),
		servingFaults(seedFor(c.Seed, int64(xi), int64(mi), int64(rep), 73), mtbf))
	if err != nil {
		return serve.Result{}, err
	}
	cfg := op.serveConfig(ex, seedFor(c.Seed, int64(xi), int64(mi), int64(rep), 71), c.overloadQueries(mult), mult)
	cfg.Disabled = disabled
	return serve.Run(cfg)
}

var overloadModes = []string{"on", "off"}

// Overload runs the serving-layer grid and returns the figures plus the
// counts table: one row per cell, summed over repetitions, whose -v detail
// is the degradation-level transitions of the cell's first repetition (the
// others are equally deterministic but add nothing to a debugging log).
func (c Config) Overload() (*Report, error) {
	policies, err := c.overloadCompile()
	if err != nil {
		return nil, err
	}
	sweep := c.overloadSweep()
	mtbfs := c.overloadMTBFs()
	type spec struct {
		mi   int
		op   overloadPolicy
		mode string
	}
	var specs []spec
	for mi := range mtbfs {
		for _, op := range policies {
			for _, mode := range overloadModes {
				specs = append(specs, spec{mi, op, mode})
			}
		}
	}
	vals, err := plane(len(specs), len(sweep), c.reps(), func(si, xi, rep int) (serve.Result, error) {
		sp := specs[si]
		return c.overloadCell(sp.op, sp.mode == "off", sweep[xi], mtbfs[sp.mi], xi, sp.mi, rep)
	})
	if err != nil {
		return nil, err
	}

	report := &Report{}
	figs := make([][]*Figure, len(mtbfs))
	for mi, mtbf := range mtbfs {
		suffix := "Fault-Free"
		if mtbf > 0 {
			suffix = "Site Crashes (MTBF 16s, MTTR 2s)"
		}
		figs[mi] = []*Figure{{
			ID: "overload-goodput", Title: "Goodput vs Offered Load, 2-Way Join; 1 Server, 50% Cached, Max Alloc, " + suffix,
			XLabel: "offered load[x saturation]", YLabel: "goodput[q/s]",
		}, {
			ID: "overload-p50", Title: "Median Response Time vs Offered Load, " + suffix,
			XLabel: "offered load[x saturation]", YLabel: "p50 RT[s]",
		}, {
			ID: "overload-p99", Title: "P99 Response Time vs Offered Load, " + suffix,
			XLabel: "offered load[x saturation]", YLabel: "p99 RT[s]",
		}}
		report.Figures = append(report.Figures, figs[mi]...)
	}
	metrics := []func(serve.Result) float64{
		func(v serve.Result) float64 { return v.Goodput },
		func(v serve.Result) float64 { return v.P50RT },
		func(v serve.Result) float64 { return v.P99RT },
	}
	cells := &Table{Title: "Overload cells (summed over reps): offered/rejected/completed/expired/failed,\n" +
		"degraded admissions, granted retries, breaker opens"}
	levels := []string{"fresh", "cached", "static"}
	for si, sp := range specs {
		pol := policyNames[sp.op.pol]
		for k, m := range metrics {
			figs[sp.mi][k].Series = append(figs[sp.mi][k].Series, curve(pol+" "+sp.mode, sweep, vals[si], m))
		}
		for xi, mult := range sweep {
			var off, rej, comp, exp, fail, degr, granted, opens int64
			for _, v := range vals[si][xi] {
				off += v.Offered
				rej += v.RejectedRate + v.RejectedQueue
				comp += v.Completed
				exp += v.Expired
				fail += v.Failed
				degr += v.CachedServed + v.StaticServed
				granted += v.RetriesGranted
				opens += v.BreakerOpens
			}
			row := Row{Fields: []Field{
				{"mtbf", "mtbf=%-4g", mtbfs[sp.mi]}, {"policy", "%-3s", pol}, {"mode", "%-3s", sp.mode},
				{"load", "load=%-4g", mult}, {"off", "off=%-4d", off}, {"rej", "rej=%-4d", rej},
				{"comp", "comp=%-4d", comp}, {"exp", "exp=%-4d", exp}, {"fail", "fail=%-4d", fail},
				{"degr", "degr=%-4d", degr}, {"retry", "retry=%-3d", granted}, {"open", "open=%d", opens},
			}}
			for _, tr := range vals[si][xi][0].Transitions {
				row.Detail = append(row.Detail, fmt.Sprintf("t=%8.3fs  %s -> %s  (queue depth %d)",
					tr.At, levels[tr.From], levels[tr.To], tr.Depth))
			}
			cells.Rows = append(cells.Rows, row)
		}
	}
	report.Tables = []*Table{cells}
	return report, nil
}
