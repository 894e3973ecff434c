package exec

import (
	"fmt"

	"hybridship/internal/catalog"
	"hybridship/internal/disk"
	"hybridship/internal/plan"
	"hybridship/internal/sim"
)

// Run executes one query plan in a fresh simulation (all buffers empty at
// the start of a query, per §4.1) and reports the measured metrics. The
// plan's logical annotations are bound to physical sites at execution time.
func Run(cfg Config, root *plan.Node) (Result, error) {
	if cfg.Catalog == nil {
		return Result{}, fmt.Errorf("exec: config needs catalog and query")
	}
	binding, err := plan.Bind(root, cfg.Catalog, catalog.Client)
	if err != nil {
		return Result{}, err
	}
	return RunBound(cfg, root, binding)
}

// RunBound executes a plan under an explicit operator-to-site binding, one
// site per node in pre-order (plan.Binding). This is how §5's *static* plans
// run: their operator sites were frozen at compile time, possibly under
// assumptions that no longer hold. Scans must still be bound to the client
// or to a site holding a copy of the relation (data can only be read where
// it lives); a binding that breaks that, names a site the catalog lacks, or
// does not have exactly one site per node is rejected before anything runs.
func RunBound(cfg Config, root *plan.Node, binding plan.Binding) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	bp, err := bindPlan(&cfg, root, binding)
	if err != nil {
		return Result{}, err
	}
	e, err := newEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	var (
		q      QueryResult
		runErr error
	)
	e.sim.Spawn("query", func(p *sim.Proc) {
		q, runErr = e.execute(p, 0, bp, QueryOpts{})
	})
	e.sim.Run()
	if runErr != nil {
		return Result{}, runErr
	}

	res := Result{
		ResponseTime: q.ResponseTime,
		ResultTuples: q.ResultTuples,
		NetStats:     e.net.Stats(),
		DiskStats:    make(map[catalog.SiteID]disk.Stats),
		Retries:      q.Retries,
		AbortedWork:  q.AbortedWork,
		BackoffTime:  q.BackoffTime,

		ReplicaFailovers: q.ReplicaFailovers,
		BackoffSkips:     q.BackoffSkips,
	}
	if e.inj != nil {
		res.FaultStats = e.inj.Stats()
	}
	if e.coh != nil {
		res.Coherence = e.coh.Summary()
	}
	res.PagesSent = res.NetStats.DataPages
	res.Messages = res.NetStats.Messages
	res.DiskStats[catalog.Client] = e.client.aggregateStats()
	for _, s := range e.servers {
		res.DiskStats[s.id] = s.aggregateStats()
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

	// Failure-awareness counters; zero when faults are disabled.
	Retries          int64
	AbortedWork      float64
	BackoffTime      float64
	ReplicaFailovers int64
	BackoffSkips     int64
}

// multiQueryName is the static lazy-name formatter for RunMulti's per-query
// processes (SpawnLazyID keeps the spawn loop allocation-free for the name).
func multiQueryName(id int64) string { return fmt.Sprintf("query%d", id) }

// RunMulti executes several instances of the same query concurrently in one
// simulation, sharing every resource — the "multi-query workloads" the paper
// leaves as future work (§7). All instances run against cfg's query and
// catalog; each may use a different plan and submission time.
func RunMulti(cfg Config, queries []QueryRun) (MultiResult, error) {
	if err := cfg.validate(); err != nil {
		return MultiResult{}, err
	}
	if len(queries) == 0 {
		return MultiResult{}, fmt.Errorf("exec: no queries to run")
	}
	bound := make([]*BoundPlan, len(queries))
	for i, qr := range queries {
		if qr.Start < 0 {
			return MultiResult{}, fmt.Errorf("exec: query %d has negative start time", i)
		}
		var err error
		if bound[i], err = bind(&cfg, qr.Plan); err != nil {
			return MultiResult{}, fmt.Errorf("exec: query %d: %w", i, err)
		}
	}
	e, err := newEngine(cfg)
	if err != nil {
		return MultiResult{}, err
	}
	results := make([]QueryResult, len(queries))
	errs := make([]error, len(queries))
	for i, qr := range queries {
		e.sim.SpawnLazyID(multiQueryName, int64(i), func(p *sim.Proc) {
			if qr.Start > 0 {
				p.Hold(qr.Start)
			}
			// Operators are built at submission time, so temp extents are
			// allocated in arrival order like a real shared system.
			results[i], errs[i] = e.execute(p, i, bound[i], QueryOpts{})
		})
	}
	elapsed := e.sim.Run()
	for _, err := range errs {
		if err != nil {
			return MultiResult{}, err
		}
	}
	st := e.net.Stats()
	return MultiResult{
		PerQuery:     results,
		TotalElapsed: elapsed,
		PagesSent:    st.DataPages,
		Messages:     st.Messages,
	}, nil
}
