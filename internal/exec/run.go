package exec

import (
	"fmt"
	"math"

	"hybridship/internal/plan"
	"hybridship/internal/sim"
)

// Run executes one query plan in a fresh simulation (all buffers empty at
// the start of a query, per §4.1) and reports the measured metrics. The
// plan's logical annotations are bound to physical sites at execution time.
func Run(cfg Config, root *plan.Node) (Result, error) {
	return runOne(cfg, func(cfg *Config, _ int) (*BoundPlan, error) { return bind(cfg, root) })
}

// RunBound executes a plan under an explicit operator-to-site binding, one
// site per node in pre-order (plan.Binding). This is how §5's *static* plans
// run: their operator sites were frozen at compile time, possibly under
// assumptions that no longer hold. Scans must still be bound to the client
// or to a site holding a copy of the relation (data can only be read where
// it lives); a binding that breaks that, names a site the catalog lacks, or
// does not have exactly one site per node is rejected before anything runs.
func RunBound(cfg Config, root *plan.Node, binding plan.Binding) (Result, error) {
	return runOne(cfg, func(cfg *Config, _ int) (*BoundPlan, error) { return bindPlan(cfg, root, binding) })
}

// runOne runs the one plan bindQ binds as the process "query" and reports
// it with the session's traffic, disk, fault and coherence counters.
func runOne(cfg Config, bindQ func(*Config, int) (*BoundPlan, error)) (Result, error) {
	s, m, err := runClosed(cfg, make([]QueryRun, 1), oneQueryName, bindQ)
	if err != nil {
		return Result{}, err
	}
	q, net := m.PerQuery[0], s.NetStats()
	res := Result{
		ResponseTime: q.ResponseTime,
		PagesSent:    m.PagesSent,
		Messages:     m.Messages,
		ResultTuples: q.ResultTuples,
		DiskStats:    s.DiskStats(),
		NetStats:     net,
		Retries:      q.Retries,
		AbortedWork:  q.AbortedWork,
		BackoffTime:  q.BackoffTime,

		ReplicaFailovers: q.ReplicaFailovers,
		BackoffSkips:     q.BackoffSkips,
		FaultStats:       s.FaultStats(),
	}
	if cfg.Coherence != nil {
		res.Coherence = s.Coherence().Summary()
	}
	return res, nil
}

// QueryRun is one query instance in a multi-query execution: a plan plus the
// virtual time at which it is submitted.
type QueryRun struct {
	Plan  *plan.Node
	Start float64
}

// MultiResult reports a multi-query execution: per-query outcomes plus the
// shared traffic counters.
type MultiResult struct {
	PerQuery     []QueryResult
	TotalElapsed float64
	PagesSent    int64
	Messages     int64
}

// QueryResult is one query's outcome: what RunMulti reports per query and
// Session.Execute returns.
type QueryResult struct {
	ResponseTime float64 // from the query's submission to its last tuple
	ResultTuples int64

	// Failure-awareness counters; zero unless an attempt aborted.
	Retries          int64
	AbortedWork      float64
	BackoffTime      float64
	ReplicaFailovers int64
	BackoffSkips     int64
}

// oneQueryName and multiQueryName are the static lazy-name formatters of
// the closed runs' query processes: a one-shot run's query is "query", and
// RunMulti's are "query0", "query1", ... (the engine goldens hash them).
func oneQueryName(int64) string      { return "query" }
func multiQueryName(id int64) string { return fmt.Sprintf("query%d", id) }

// RunMulti executes several instances of the same query concurrently in one
// simulation, sharing every resource — the "multi-query workloads" the paper
// leaves as future work (§7). All instances run against cfg's query and
// catalog; each may use a different plan and a finite, non-negative
// submission time.
func RunMulti(cfg Config, queries []QueryRun) (MultiResult, error) {
	if len(queries) == 0 {
		return MultiResult{}, fmt.Errorf("exec: no queries to run")
	}
	_, m, err := runClosed(cfg, queries, multiQueryName, func(cfg *Config, i int) (*BoundPlan, error) {
		if st := queries[i].Start; st < 0 || math.IsNaN(st) || math.IsInf(st, 0) {
			return nil, fmt.Errorf("exec: query %d has start time %v, want a finite time >= 0", i, st)
		}
		bp, err := bind(cfg, queries[i].Plan)
		if err != nil {
			return nil, fmt.Errorf("exec: query %d: %w", i, err)
		}
		return bp, nil
	})
	return m, err
}

// runClosed is the one loop of the closed runs. It builds a Session through
// newSession, binding query i with bindQ, submits query i at its start time
// as the process name(i), drives the simulation to its end, and collects
// one QueryResult per query and the shared traffic counters. Its queries
// run supervised like a session's, but with no serving-layer gates, and its
// pool is private.
func runClosed(cfg Config, queries []QueryRun, name func(int64) string, bindQ func(*Config, int) (*BoundPlan, error)) (*Session, MultiResult, error) {
	s, bound, err := newSession(cfg, len(queries), bindQ)
	if err != nil {
		return nil, MultiResult{}, err
	}
	results := make([]QueryResult, len(queries))
	errs := make([]error, len(queries))
	for i, qr := range queries {
		s.e.sim.SpawnLazyID(name, int64(i), func(p *sim.Proc) {
			if qr.Start > 0 {
				p.Hold(qr.Start)
			}
			// Operators are built at submission time, so temp extents are
			// allocated in arrival order like a real shared system.
			results[i], errs[i] = s.Execute(p, i, bound[i], QueryOpts{})
		})
	}
	elapsed := s.e.sim.Run()
	for _, err := range errs {
		if err != nil {
			return nil, MultiResult{}, err
		}
	}
	st := s.NetStats()
	return s, MultiResult{PerQuery: results, TotalElapsed: elapsed, PagesSent: st.DataPages, Messages: st.Messages}, nil
}
