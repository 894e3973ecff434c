package experiments

import (
	"fmt"
	"reflect"
)

// The failover grid measures what replication buys under the chaos grid's
// fault environment: the same 2-way join, half the pages client-cached,
// stochastic site crashes over a sweep of MTBFs — but the catalog now holds
// RF ∈ {1, 2, 3} copies of every relation (primaries all on server 0, extra
// servers holding only replicas), and the engine's retry loop re-binds a
// scan whose copy is down to a surviving replica instead of backing off
// until the crashed site returns (DESIGN.md §14).
//
// Two figures come out of one grid, each with one series per (policy, RF):
//
//   - failover-avail: availability vs MTBF, measured as the share of the
//     query's lifetime it was actively served rather than parked waiting out
//     a failure, 100·(RT − BackoffTime)/RT. An unreplicated query whose home
//     site crashes can only back off until the site returns; a replicated
//     one re-binds and keeps running, so replication attacks exactly this
//     term.
//   - failover-goodput: the chaos grid's useful-work fraction, 100·(RT −
//     AbortedWork − BackoffTime)/RT, which additionally charges the work
//     thrown away by crash-aborted attempts.
//
// Runs are paired three ways: for a given (MTBF, rep) cell every policy and
// every RF sees the same simulation seed and the same fault-stream seed, and
// fault streams are derived per site, so server 0's crash schedule is
// bit-identical across the whole RF axis. The driver itself asserts the
// headline property — RF=2 and RF=3 availability dominate RF=1 at every
// (policy, MTBF) — and that every RF=1 cell reproduces the unreplicated
// chaos configuration exactly (reflect.DeepEqual of the full exec result),
// so `csq run failover` is self-checking.

// failoverWarmup is the post-restart warm-up delay (seconds) during which a
// recovered site's copies are deprioritized: its controller caches come back
// cold, so a warm replica is preferred while one is up. Inert at RF=1.
const failoverWarmup = 0.5

// seedReplicaPlace tags the replica-placement stream within the experiment
// seed space (the chaos grid's opt/sim/fault tags 60-62 are the neighbors).
const seedReplicaPlace = 63

// failoverRFs is the replication-factor axis of the grid.
var failoverRFs = []int{1, 2, 3}

// Failover runs the replication grid and returns the availability and
// goodput figures plus the per-cell failure-handling counters, summed over
// repetitions, for `csq run failover -v`: how often the retry loop actually
// re-bound to a surviving replica, and how often the replica-aware backoff
// skipped a wait because another copy was up.
func (c Config) Failover() (*Report, error) {
	avFig := &Figure{
		ID: "failover-avail", Title: "Availability, 2-Way Join; 50% Cached, Min Alloc, Site Crashes (MTTR 2s), RF 1-3",
		XLabel: "MTBF[s]",
		YLabel: "availability[%]",
	}
	gpFig := &Figure{
		ID: "failover-goodput", Title: "Goodput, 2-Way Join; 50% Cached, Min Alloc, Site Crashes (MTTR 2s), RF 1-3",
		XLabel: "MTBF[s]",
		YLabel: "goodput[%]",
	}
	sweep := c.chaosSweep()
	type spec struct{ pi, rf int }
	var specs []spec
	for pi := range allPolicies {
		for _, rf := range failoverRFs {
			specs = append(specs, spec{pi, rf})
		}
	}
	type cell struct {
		avail, goodput            float64
		retries, failovers, skips int64
	}
	vals, err := plane(len(specs), len(sweep), c.reps(), func(si, xi, rep int) (cell, error) {
		pi, rf := specs[si].pi, specs[si].rf
		r, err := c.failoverRun(pi, xi, rep, rf)
		if err != nil {
			return cell{}, err
		}
		res, err := r.measure()
		if err != nil {
			return cell{}, err
		}
		if rf == 1 {
			// The RF=1 column is the exact legacy path: rerun the literal
			// chaos cell (no replication, no warm-up delay) and demand
			// the identical result, fault statistics and disk counters
			// included.
			legacy, err := c.chaosRun(pi, xi, rep)
			if err != nil {
				return cell{}, err
			}
			legacyRes, err := legacy.measure()
			if err != nil {
				return cell{}, err
			}
			if !reflect.DeepEqual(res, legacyRes) {
				return cell{}, fmt.Errorf("failover: RF=1 cell (policy %s, MTBF %g, rep %d) diverges from the unreplicated chaos path:\n got %+v\nwant %+v",
					policyNames[allPolicies[pi]], sweep[xi], rep, res, legacyRes)
			}
		}
		avail := 100.0
		if res.ResponseTime > 0 {
			avail = 100 * (res.ResponseTime - res.BackoffTime) / res.ResponseTime
		}
		return cell{
			avail: avail, goodput: goodput(res),
			retries: res.Retries, failovers: res.ReplicaFailovers, skips: res.BackoffSkips,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	cells := &Table{Title: "Failover cells (summed over reps): retries, replica failovers, backoff skips", Verbose: true}
	var base []Point // the current policy's rf=1 availability, which failoverRFs lists first
	for si, sp := range specs {
		pol := policyNames[allPolicies[sp.pi]]
		name := fmt.Sprintf("%s rf=%d", pol, sp.rf)
		av := curve(name, sweep, vals[si], func(v cell) float64 { return v.avail })
		avFig.Series = append(avFig.Series, av)
		gpFig.Series = append(gpFig.Series, curve(name, sweep, vals[si], func(v cell) float64 { return v.goodput }))
		if sp.rf == 1 {
			base = av.Points
		}
		for xi, mtbf := range sweep {
			// The headline property, checked on every run: replication never
			// costs availability. Paired seeds make the comparison exact, so
			// no tolerance.
			if got := av.Points[xi].Mean; got < base[xi].Mean {
				return nil, fmt.Errorf("failover: availability regression: policy %s, MTBF %g: rf=%d mean %.4f%% below rf=1 mean %.4f%%",
					pol, mtbf, sp.rf, got, base[xi].Mean)
			}
			var sum cell
			for _, v := range vals[si][xi] {
				sum.retries += v.retries
				sum.failovers += v.failovers
				sum.skips += v.skips
			}
			cells.Rows = append(cells.Rows, Row{Fields: []Field{
				{"mtbf", "mtbf=%-4g", mtbf}, {"policy", "%-3s", pol}, {"rf", "rf=%d", sp.rf},
				{"retry", "retry=%-4d", sum.retries}, {"failover", "failover=%-4d", sum.failovers},
				{"skip", "skip=%d", sum.skips},
			}})
		}
	}
	return &Report{Figures: []*Figure{avFig, gpFig}, Tables: []*Table{cells}}, nil
}

// failoverRun assembles one grid cell's run: the chaos cell (same query,
// caching, and seed tags) over a catalog with rf servers and rf copies of
// every relation, with the post-restart warm-up delay. rf=1 keeps the chaos
// cell's catalog.
func (c Config) failoverRun(pi, xi, rep, rf int) (run, error) {
	r, err := c.chaosRun(pi, xi, rep)
	if err != nil {
		return run{}, err
	}
	if rf > 1 {
		if r.cat, err = twoWayCatalog(rf, 0.5); err != nil {
			return run{}, err
		}
		if err := r.cat.ReplicateAll(rf, seedFor(c.Seed, seedReplicaPlace)); err != nil {
			return run{}, err
		}
	}
	r.faults.WarmupDelay = failoverWarmup
	return r, nil
}
