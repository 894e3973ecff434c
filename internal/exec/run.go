package exec

import (
	"fmt"
	"math"

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

// RunBound executes a plan under an explicit operator-to-site binding. This
// is how §5's *static* plans run: their operator sites were frozen at
// compile time, possibly under assumptions that no longer hold. Scans must
// still be bound to the client or to a site holding a copy of the relation
// (data can only be read where it lives).
func RunBound(cfg Config, root *plan.Node, binding plan.Binding) (Result, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	if root.Kind != plan.KindDisplay {
		return Result{}, fmt.Errorf("exec: plan root must be display")
	}
	var bindErr error
	root.Walk(func(n *plan.Node) {
		site, ok := binding[n]
		if !ok {
			bindErr = fmt.Errorf("exec: node %v missing from binding", n.Kind)
			return
		}
		if site != catalog.Client && (int(site) < 0 || int(site) >= cfg.Catalog.NumServers) {
			bindErr = fmt.Errorf("exec: node %v bound to nonexistent site %d", n.Kind, site)
		}
	})
	if bindErr != nil {
		return Result{}, bindErr
	}

	var (
		finished float64
		out      queryOutcome
		runErr   error
	)
	e.sim.Spawn("query", func(p *sim.Proc) {
		out, runErr = e.runQuery(p, 0, root, binding, QueryOpts{})
		finished = e.sim.Now()
	})
	e.sim.Run()
	if runErr != nil {
		return Result{}, runErr
	}

	res := Result{
		ResponseTime: finished,
		ResultTuples: out.tuples,
		NetStats:     e.net.Stats(),
		DiskStats:    make(map[catalog.SiteID]disk.Stats),
		Retries:      out.retries,
		AbortedWork:  out.abortedWork,
		BackoffTime:  out.backoffTime,

		ReplicaFailovers: out.replicaFailovers,
		BackoffSkips:     out.backoffSkips,
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

// estCard estimates a subtree's output cardinality and tuple width from
// catalog statistics, the same way the optimizer's cost model does. The
// engine uses it only to size join memory allocations; actual cardinalities
// are measured by executing the plan.
func (e *engine) estCard(n *plan.Node) (float64, int) {
	switch n.Kind {
	case plan.KindScan:
		r := e.cfg.Catalog.MustRelation(n.Table)
		return float64(r.Tuples), r.TupleBytes
	case plan.KindSelect:
		card, bytes := e.estCard(n.Left)
		return card * e.cfg.Query.SelectSelectivity(n.Rel), bytes
	case plan.KindJoin:
		cl, _ := e.estCard(n.Left)
		cr, _ := e.estCard(n.Right)
		sel := e.cfg.Query.JoinSelectivity(e.tables(n.Left), e.tables(n.Right))
		return cl * cr * sel, e.cfg.Query.ResultTupleBytes
	case plan.KindAgg:
		card, bytes := e.estCard(n.Left)
		if g := float64(e.cfg.Query.GroupBy); g > 0 && g < card {
			card = g
		}
		return card, bytes
	}
	panic("exec: estCard on non-relational node")
}

// tables is the relation mask (Query.RelMask) of the base relations
// scanned under n.
func (e *engine) tables(n *plan.Node) uint64 {
	var m uint64
	n.Walk(func(s *plan.Node) {
		if s.Kind == plan.KindScan {
			m |= e.cfg.Query.RelMask(s.Table)
		}
	})
	return m
}

func (e *engine) estPages(n *plan.Node) int {
	card, bytes := e.estCard(n)
	if card <= 0 {
		return 0
	}
	return int(math.Ceil(card / float64(tuplesPerPage(e.cfg.Params.PageSize, bytes))))
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

// QueryResult is one query's outcome within a multi-query run.
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
	if cfg.Catalog == nil {
		return MultiResult{}, fmt.Errorf("exec: config needs catalog and query")
	}
	if len(queries) == 0 {
		return MultiResult{}, fmt.Errorf("exec: no queries to run")
	}
	e, err := newEngine(cfg)
	if err != nil {
		return MultiResult{}, err
	}
	results := make([]QueryResult, len(queries))
	errs := make([]error, len(queries))
	for i, qr := range queries {
		if qr.Start < 0 {
			return MultiResult{}, fmt.Errorf("exec: query %d has negative start time", i)
		}
		binding, err := plan.Bind(qr.Plan, cfg.Catalog, catalog.Client)
		if err != nil {
			return MultiResult{}, fmt.Errorf("exec: query %d: %w", i, err)
		}
		if qr.Plan.Kind != plan.KindDisplay {
			return MultiResult{}, fmt.Errorf("exec: query %d: plan root must be display", i)
		}
		i, qr, binding := i, qr, binding
		e.sim.SpawnLazyID(multiQueryName, int64(i), func(p *sim.Proc) {
			if qr.Start > 0 {
				p.Hold(qr.Start)
			}
			// Operators are built at submission time, so temp extents are
			// allocated in arrival order like a real shared system.
			out, err := e.runQuery(p, i, qr.Plan, binding, QueryOpts{})
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = QueryResult{
				ResponseTime:     e.sim.Now() - qr.Start,
				ResultTuples:     out.tuples,
				Retries:          out.retries,
				AbortedWork:      out.abortedWork,
				BackoffTime:      out.backoffTime,
				ReplicaFailovers: out.replicaFailovers,
				BackoffSkips:     out.backoffSkips,
			}
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
