package experiments

import (
	"hybridship/internal/cost"
	"hybridship/internal/exec"
	"hybridship/internal/faults"
	"hybridship/internal/workload"
)

// The chaos grid measures how the three shipping policies degrade when the
// server can crash: the 2-way join of Figure 3 (one server, half the pages
// client-cached, minimum memory — the Figure 3 configuration, where hybrid
// shipping wins outright) executed under stochastic site crashes with
// a sweep of mean times between failures. Plans are compiled fault-free —
// failures are a run-time phenomenon — and the engine's recovery policy
// (abort, back off, re-bind against survivors) does the rest.
//
// Two figures come out of one grid:
//
//   - chaos-rt: mean response time vs MTBF. Short MTBFs force repeated
//     attempts, so response times stretch by the wasted and backoff time.
//   - chaos-goodput: the useful fraction of the response time, 100·(RT −
//     AbortedWork − BackoffTime)/RT. 100% means the first attempt ran
//     through; lower values measure work thrown away.
//
// Runs are paired: for a given (MTBF, rep) cell every policy sees the same
// simulation seed and the same fault stream seed, so policy comparisons are
// not confounded by different crash schedules.

// chaosMTTR is the mean repair time of the chaos grid, and chaosRetries the
// per-query retry budget — deliberately generous: the grid studies
// degradation, not admission control, so queries must survive even the
// shortest-MTBF column.
const (
	chaosMTTR    = 2.0
	chaosRetries = 1000
)

// chaosSweep returns the MTBF x axis, in seconds of virtual time.
func (c Config) chaosSweep() []float64 {
	if c.Quick {
		return []float64{4, 16, 64}
	}
	return []float64{4, 8, 16, 32, 64}
}

// Chaos runs the fault-injection grid and returns the response-time and
// goodput figures.
func (c Config) Chaos() (*Report, error) {
	rtFig := &Figure{
		ID: "chaos-rt", Title: "Response Time, 2-Way Join; 1 Server, 50% Cached, Min Alloc, Site Crashes (MTTR 2s)",
		XLabel: "MTBF[s]",
		YLabel: cost.MetricResponseTime.String(),
	}
	gpFig := &Figure{
		ID: "chaos-goodput", Title: "Goodput, 2-Way Join; 1 Server, 50% Cached, Min Alloc, Site Crashes (MTTR 2s)",
		XLabel: "MTBF[s]",
		YLabel: "goodput[%]",
	}
	sweep := c.chaosSweep()
	type cell struct{ rt, goodput float64 }
	vals, err := plane(len(allPolicies), len(sweep), c.reps(), func(pi, xi, rep int) (cell, error) {
		r, err := c.chaosRun(pi, xi, rep)
		if err != nil {
			return cell{}, err
		}
		res, err := r.measure()
		if err != nil {
			return cell{}, err
		}
		return cell{rt: res.ResponseTime, goodput: goodput(res)}, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, pol := range allPolicies {
		rtFig.Series = append(rtFig.Series, curve(policyNames[pol], sweep, vals[pi], func(v cell) float64 { return v.rt }))
		gpFig.Series = append(gpFig.Series, curve(policyNames[pol], sweep, vals[pi], func(v cell) float64 { return v.goodput }))
	}
	return &Report{Figures: []*Figure{rtFig, gpFig}}, nil
}

// chaosRun assembles one chaos-grid cell's run: policy pi under site
// crashes at MTBF sweep[xi], repetition rep.
func (c Config) chaosRun(pi, xi, rep int) (run, error) {
	cat, err := twoWayCatalog(1, 0.5)
	if err != nil {
		return run{}, err
	}
	return run{
		cat: cat, q: workload.ChainQuery(2, workload.Moderate),
		policy: allPolicies[pi], metric: cost.MetricResponseTime, maxAlloc: false,
		next:    workload.Next(workload.Moderate),
		optSeed: seedFor(c.Seed, int64(allPolicies[pi]), int64(xi), int64(rep), 60),
		simSeed: seedFor(c.Seed, int64(xi), int64(rep), 61),
		faults: &faults.Config{
			Seed:       seedFor(c.Seed, int64(xi), int64(rep), 62),
			SiteMTBF:   c.chaosSweep()[xi],
			SiteMTTR:   chaosMTTR,
			MaxRetries: chaosRetries,
		},
	}, nil
}

// goodput is the useful fraction of a run's response time, 100·(RT −
// AbortedWork − BackoffTime)/RT; 100 for an instant run.
func goodput(res exec.Result) float64 {
	if res.ResponseTime <= 0 {
		return 100
	}
	return 100 * (res.ResponseTime - res.AbortedWork - res.BackoffTime) / res.ResponseTime
}
