// Package hybridship is a library-level reproduction of "Performance
// Tradeoffs for Client-Server Query Processing" (Franklin, Jónsson,
// Kossmann; SIGMOD 1996).
//
// It provides the three client-server query execution policies of the paper
// — data-shipping, query-shipping, and hybrid-shipping — implemented as
// restrictions on the site annotations of query plans; a randomized
// two-phase query optimizer (iterative improvement + simulated annealing)
// that performs join ordering and site selection under any of the policies;
// and a detailed discrete-event simulator (CPU, elevator-scheduled disks
// with controller caches, shared network, Volcano-style iterator engine
// with hybrid hash joins) that executes the optimized plans and measures
// response time and communication volume.
//
// A minimal session:
//
//	sys, _ := hybridship.NewSystem(hybridship.SystemConfig{Servers: 2},
//	    []hybridship.Relation{
//	        {Name: "emp", Tuples: 10000, TupleBytes: 100, Server: 0},
//	        {Name: "dept", Tuples: 10000, TupleBytes: 100, Server: 1},
//	    })
//	q := hybridship.Query{
//	    Predicates: []hybridship.JoinPredicate{
//	        {Left: "emp", Right: "dept", Selectivity: 1e-4},
//	    },
//	}
//	pl, _ := sys.Optimize(q, hybridship.OptimizeOptions{
//	    Policy: hybridship.HybridShipping,
//	    Metric: hybridship.MinimizeResponseTime,
//	})
//	res, _ := sys.Execute(q, pl, hybridship.ExecOptions{})
//	fmt.Println(res.ResponseTime, res.PagesSent)
//
// The experiment drivers that regenerate every figure of the paper are
// exposed through Experiments.
package hybridship

import (
	"fmt"

	"hybridship/internal/catalog"
	"hybridship/internal/cost"
	"hybridship/internal/exec"
	"hybridship/internal/experiments"
	"hybridship/internal/machine"
	"hybridship/internal/opt"
	"hybridship/internal/plan"
	"hybridship/internal/query"
)

// Policy selects a query execution policy (§2.2 of the paper).
type Policy int

const (
	// DataShipping executes every operator at the client, faulting data in
	// from the servers (the ODBMS style).
	DataShipping Policy = iota
	// QueryShipping executes scans at primary copies and joins at producer
	// sites; only the display runs at the client (the RDBMS style).
	QueryShipping
	// HybridShipping may place each operator at the client or at servers,
	// subsuming both pure policies.
	HybridShipping
)

func (p Policy) String() string { return p.internal().String() }

func (p Policy) internal() plan.Policy {
	switch p {
	case DataShipping:
		return plan.DataShipping
	case QueryShipping:
		return plan.QueryShipping
	default:
		return plan.HybridShipping
	}
}

// Metric selects the optimization goal.
type Metric int

const (
	// MinimizeResponseTime optimizes elapsed time to the last result tuple.
	MinimizeResponseTime Metric = iota
	// MinimizeTotalCost optimizes summed resource consumption.
	MinimizeTotalCost
	// MinimizePagesSent optimizes communication volume, the metric for
	// network-bound environments.
	MinimizePagesSent
)

func (m Metric) internal() cost.Metric {
	switch m {
	case MinimizeTotalCost:
		return cost.MetricTotalCost
	case MinimizePagesSent:
		return cost.MetricPagesSent
	default:
		return cost.MetricResponseTime
	}
}

// SystemConfig describes the simulated client-server installation. Zero
// values take the paper's Table 2 defaults.
type SystemConfig struct {
	Servers int // number of server machines (>= 1)

	PageSize    int     // bytes per page (default 4096)
	Mips        float64 // CPU speed in 10^6 instructions/sec (default 50)
	NetBwBits   float64 // network bandwidth in bits/sec (default 100e6)
	MsgInst     float64 // instructions per message send/receive (default 20000)
	PerSizeMI   float64 // instructions per PageSize bytes sent (default 12000)
	DisplayInst float64 // instructions to display a tuple (default 0)
	CompareInst float64 // instructions to apply a predicate (default 2)
	HashInst    float64 // instructions to hash a tuple (default 9)
	MoveInst    float64 // instructions to copy 4 bytes (default 1)
	DiskInst    float64 // instructions per disk I/O request (default 5000)

	// NumDisks is the number of disks per site (default 1, as in the
	// paper's experiments).
	NumDisks int

	// MaxAlloc grants joins the maximum memory allocation (hash table in
	// memory); the default is the minimum allocation per Shapiro.
	MaxAlloc bool
}

func (c SystemConfig) withDefaults() SystemConfig {
	d := machine.DefaultParams()
	if c.Servers <= 0 {
		c.Servers = 1
	}
	if c.PageSize <= 0 {
		c.PageSize = d.PageSize
	}
	if c.Mips <= 0 {
		c.Mips = d.Mips
	}
	if c.NetBwBits <= 0 {
		c.NetBwBits = d.NetBw
	}
	if c.MsgInst <= 0 {
		c.MsgInst = d.MsgInst
	}
	if c.PerSizeMI <= 0 {
		c.PerSizeMI = d.PerSizeMI
	}
	if c.CompareInst <= 0 {
		c.CompareInst = d.CompareInst
	}
	if c.HashInst <= 0 {
		c.HashInst = d.HashInst
	}
	if c.MoveInst <= 0 {
		c.MoveInst = d.MoveInst
	}
	if c.DiskInst <= 0 {
		c.DiskInst = d.DiskInst
	}
	if c.NumDisks <= 0 {
		c.NumDisks = d.NumDisks
	}
	return c
}

// machine maps the configuration onto Table 2, which the engine and the cost
// model share.
func (c SystemConfig) machine() machine.Params {
	return machine.Params{
		Mips:        c.Mips,
		NumDisks:    c.NumDisks,
		DiskInst:    c.DiskInst,
		PageSize:    c.PageSize,
		NetBw:       c.NetBwBits,
		MsgInst:     c.MsgInst,
		PerSizeMI:   c.PerSizeMI,
		DisplayInst: c.DisplayInst,
		CompareInst: c.CompareInst,
		HashInst:    c.HashInst,
		MoveInst:    c.MoveInst,
		MaxAlloc:    c.MaxAlloc,
		FudgeF:      machine.DefaultParams().FudgeF, // not a SystemConfig setting
	}
}

// siteLoad keys an external load by server site; an empty load is nil. A
// key that names no server of the system is an error.
func (s *System) siteLoad(load map[int]float64) (map[catalog.SiteID]float64, error) {
	if len(load) == 0 {
		return nil, nil
	}
	out := make(map[catalog.SiteID]float64, len(load))
	for srv, rate := range load {
		out[catalog.SiteID(srv)] = rate
	}
	return out, s.cat.CheckServerLoad(out)
}

// Relation declares one base relation of the database.
type Relation struct {
	Name       string
	Tuples     int
	TupleBytes int
	Server     int     // home server (0-based)
	Cached     float64 // fraction cached on the client disk, 0..1
}

// JoinPredicate is an equijoin between two relations with the classical
// selectivity factor |L ⋈ R| = |L|·|R|·Selectivity.
type JoinPredicate struct {
	Left, Right string
	Selectivity float64
}

// Query is a select-project-join query over declared relations: at most 64
// of them, the width of the relation bitmask every plan search and execution
// uses.
type Query struct {
	// Predicates define the join graph; every relation mentioned must be
	// declared on the system.
	Predicates []JoinPredicate
	// Selections maps relation names to selection predicates applied above
	// the scan: an estimated selectivity and an exact per-tuple filter.
	Selections map[string]Selection
	// ResultTupleBytes is the projected width of intermediate and final
	// tuples (default 100, as in the paper).
	ResultTupleBytes int
	// JoinAttribute gives the value of a relation's join attribute for a
	// row id; the predicate L=R matches rows with JoinAttribute(L, i) == j.
	// Defaults to the identity, i.e. 1:1 functional joins.
	JoinAttribute func(rel string, id int64) int64
	// GroupBy, when positive, reduces the join result to that many groups
	// with a grouped COUNT aggregation before display. The aggregation is
	// annotated like a selection (paper footnote 4), so the optimizer may
	// run it at a producer site to shrink communication, or at the client.
	GroupBy int
}

// Selection is a filter above one relation's scan.
type Selection struct {
	Selectivity float64
	Pass        func(id int64) bool
}

// System is a configured database: machines plus schema. It is immutable
// once created; each Execute runs a fresh simulation.
type System struct {
	cfg SystemConfig
	cat *catalog.Catalog
}

// NewSystem validates the configuration and schema.
func NewSystem(cfg SystemConfig, relations []Relation) (*System, error) {
	cfg = cfg.withDefaults()
	cat := catalog.New(cfg.PageSize, cfg.Servers)
	for _, r := range relations {
		if err := cat.AddRelation(catalog.Relation{
			Name:       r.Name,
			Tuples:     r.Tuples,
			TupleBytes: r.TupleBytes,
			Home:       catalog.SiteID(r.Server),
		}); err != nil {
			return nil, err
		}
		if r.Cached > 0 {
			if err := cat.SetCachedFraction(r.Name, r.Cached); err != nil {
				return nil, err
			}
		}
	}
	return &System{cfg: cfg, cat: cat}, nil
}

// Servers returns the number of server machines.
func (s *System) Servers() int { return s.cfg.Servers }

// buildQuery converts the public query into the internal representation.
func (s *System) buildQuery(q Query) (*query.Query, error) {
	iq := &query.Query{ResultTupleBytes: q.ResultTupleBytes}
	if iq.ResultTupleBytes == 0 {
		iq.ResultTupleBytes = 100
	}
	seen := make(map[string]bool)
	addRel := func(n string) error {
		if seen[n] {
			return nil
		}
		if _, ok := s.cat.Relation(n); !ok {
			return fmt.Errorf("hybridship: query references undeclared relation %q", n)
		}
		seen[n] = true
		iq.Relations = append(iq.Relations, n)
		return nil
	}
	for _, p := range q.Predicates {
		if err := addRel(p.Left); err != nil {
			return nil, err
		}
		if err := addRel(p.Right); err != nil {
			return nil, err
		}
		iq.Preds = append(iq.Preds, query.Pred{A: p.Left, B: p.Right, Selectivity: p.Selectivity})
	}
	if len(q.Selections) > 0 {
		iq.Selects = make(map[string]float64, len(q.Selections))
		for rel, sel := range q.Selections {
			if err := addRel(rel); err != nil {
				return nil, err
			}
			iq.Selects[rel] = sel.Selectivity
		}
	}
	iq.GroupBy = q.GroupBy
	if err := iq.Validate(); err != nil {
		return nil, err
	}
	return iq, nil
}

// OptimizeOptions configure plan search.
type OptimizeOptions struct {
	Policy Policy
	Metric Metric
	Seed   int64
	// LeftDeepOnly restricts the search to left-deep join trees.
	LeftDeepOnly bool
	// Exhaustive switches from the randomized two-phase optimizer to the
	// deterministic System-R-style dynamic-programming optimizer. Exact for
	// MinimizeTotalCost; practical up to roughly eight relations for bushy
	// search spaces.
	Exhaustive bool
	// ServerLoad communicates expected external load (requests/second of
	// random reads) to the optimizer's cost model.
	ServerLoad map[int]float64
}

// Plan is an optimized, annotated query plan.
type Plan struct {
	root *plan.Node
	est  cost.Estimate
}

// String renders the plan tree with its annotations.
func (p *Plan) String() string { return p.root.String() }

// EstimatedResponseTime returns the optimizer's response-time prediction in
// seconds.
func (p *Plan) EstimatedResponseTime() float64 { return p.est.ResponseTime }

// EstimatedPagesSent returns the optimizer's communication prediction.
func (p *Plan) EstimatedPagesSent() float64 { return p.est.PagesSent }

// EstimatedTotalCost returns the optimizer's total-cost prediction in
// resource-seconds.
func (p *Plan) EstimatedTotalCost() float64 { return p.est.TotalCost }

// MarshalJSON serializes the plan for storage, enabling the pre-compiled
// plan workflows of §5 of the paper: compile once, store, and later execute
// statically or re-run site selection with SiteSelect.
func (p *Plan) MarshalJSON() ([]byte, error) { return plan.Marshal(p.root) }

// LoadPlan deserializes a stored plan and re-estimates it against this
// system's current state.
func (s *System) LoadPlan(q Query, data []byte) (*Plan, error) {
	root, err := plan.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	model, err := s.model(q, nil)
	if err != nil {
		return nil, err
	}
	b, err := plan.Bind(root, s.cat, catalog.Client)
	if err != nil {
		return nil, err
	}
	return &Plan{root: root, est: model.Estimate(root, b)}, nil
}

// Policy reports the most restrictive policy the plan conforms to.
func (p *Plan) Policy() Policy {
	if plan.ValidateFor(p.root, plan.DataShipping) == nil {
		return DataShipping
	}
	if plan.ValidateFor(p.root, plan.QueryShipping) == nil {
		return QueryShipping
	}
	return HybridShipping
}

// model builds the cost model of q on this system under an external
// server load.
func (s *System) model(q Query, load map[int]float64) (*cost.Model, error) {
	iq, err := s.buildQuery(q)
	if err != nil {
		return nil, err
	}
	sl, err := s.siteLoad(load)
	if err != nil {
		return nil, err
	}
	params := cost.DefaultParams()
	params.Params = s.cfg.machine()
	params.SetServerLoad(sl)
	return &cost.Model{Params: params, Catalog: s.cat, Query: iq}, nil
}

// Optimize searches for a plan with the randomized two-phase optimizer, or
// with the exhaustive dynamic-programming optimizer when requested.
func (s *System) Optimize(q Query, o OptimizeOptions) (*Plan, error) {
	model, err := s.model(q, o.ServerLoad)
	if err != nil {
		return nil, err
	}
	if o.Exhaustive {
		res, err := opt.NewDP(model, opt.DPOptions{
			Policy:       o.Policy.internal(),
			Metric:       o.Metric.internal(),
			LeftDeepOnly: o.LeftDeepOnly,
		}).Optimize()
		if err != nil {
			return nil, err
		}
		return &Plan{root: res.Plan, est: res.Estimate}, nil
	}
	opts := opt.DefaultOptions(o.Policy.internal(), o.Metric.internal(), o.Seed)
	opts.LeftDeepOnly = o.LeftDeepOnly
	res, err := opt.New(model, opts).Optimize()
	if err != nil {
		return nil, err
	}
	return &Plan{root: res.Plan, est: res.Estimate}, nil
}

// SiteSelect re-runs site selection on an existing plan against this
// system's current state, keeping the join order — the runtime half of
// 2-step optimization (§5 of the paper). The input plan is not modified.
func (s *System) SiteSelect(q Query, p *Plan, o OptimizeOptions) (*Plan, error) {
	model, err := s.model(q, o.ServerLoad)
	if err != nil {
		return nil, err
	}
	opts := opt.DefaultOptions(o.Policy.internal(), o.Metric.internal(), o.Seed)
	opts.FixedJoinOrder = true
	res, err := opt.New(model, opts).OptimizeFrom(p.root)
	if err != nil {
		return nil, err
	}
	return &Plan{root: res.Plan, est: res.Estimate}, nil
}

// ExecOptions configure one simulated execution.
type ExecOptions struct {
	// ServerLoad runs an external process of random single-page reads at
	// the given rate (requests/second) against each listed server's disk,
	// modeling multi-client contention.
	ServerLoad map[int]float64
	// Seed drives load arrivals; executions are deterministic per seed.
	Seed int64
}

// ExecResult reports a simulated execution.
type ExecResult struct {
	ResponseTime float64 // seconds from initiation to last displayed tuple
	PagesSent    int64   // data pages moved over the network
	Messages     int64   // total network messages
	ResultTuples int64   // measured result cardinality
}

// execConfig builds the engine configuration shared by Execute and
// ExecuteConcurrent: the query, its join attribute and selection filters,
// and the external server load.
func (s *System) execConfig(q Query, o ExecOptions) (exec.Config, error) {
	iq, err := s.buildQuery(q)
	if err != nil {
		return exec.Config{}, err
	}
	next := q.JoinAttribute
	if next == nil {
		next = func(_ string, id int64) int64 { return id }
	}
	var pass func(rel string, id int64) bool
	if len(q.Selections) > 0 {
		pass = func(rel string, id int64) bool {
			sel, ok := q.Selections[rel]
			if !ok || sel.Pass == nil {
				return true
			}
			return sel.Pass(id)
		}
	}
	load, err := s.siteLoad(o.ServerLoad)
	if err != nil {
		return exec.Config{}, err
	}
	params := exec.DefaultParams()
	params.Params = s.cfg.machine()
	return exec.Config{
		Params:     params,
		Catalog:    s.cat,
		Query:      iq,
		Next:       next,
		Pass:       pass,
		ServerLoad: load,
		Seed:       o.Seed,
	}, nil
}

// Execute runs the plan in a fresh simulation of this system.
func (s *System) Execute(q Query, p *Plan, o ExecOptions) (ExecResult, error) {
	cfg, err := s.execConfig(q, o)
	if err != nil {
		return ExecResult{}, err
	}
	res, err := exec.Run(cfg, p.root)
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{
		ResponseTime: res.ResponseTime,
		PagesSent:    res.PagesSent,
		Messages:     res.Messages,
		ResultTuples: res.ResultTuples,
	}, nil
}

// Submission is one query instance in a concurrent workload: a plan plus
// the virtual time at which the client submits it.
type Submission struct {
	Plan  *Plan
	Start float64
}

// ExecuteConcurrent runs several instances of the same query concurrently in
// one simulation, sharing every machine, disk, and the network — the
// multi-query workloads the paper names as future work (§7). Instances may
// use different plans and submission times; a start time that is not finite
// and >= 0 is an error. The instances share the network, so a per-instance
// ExecResult carries only ResponseTime and ResultTuples: its PagesSent and
// Messages are zero.
func (s *System) ExecuteConcurrent(q Query, subs []Submission, o ExecOptions) ([]ExecResult, error) {
	cfg, err := s.execConfig(q, o)
	if err != nil {
		return nil, err
	}
	runs := make([]exec.QueryRun, len(subs))
	for i, sub := range subs {
		runs[i] = exec.QueryRun{Plan: sub.Plan.root, Start: sub.Start}
	}
	multi, err := exec.RunMulti(cfg, runs)
	if err != nil {
		return nil, err
	}
	out := make([]ExecResult, len(subs))
	for i, qr := range multi.PerQuery {
		out[i] = ExecResult{
			ResponseTime: qr.ResponseTime,
			ResultTuples: qr.ResultTuples,
		}
	}
	return out, nil
}

// Experiments exposes the drivers that regenerate the paper's tables and
// figures; see the experiments package for the per-figure documentation.
type Experiments = experiments.Config

// ExperimentFigure is a reproduced figure: series of (x, mean, 90% CI)
// points.
type ExperimentFigure = experiments.Figure

// ExperimentReport is what every experiment driver returns: its figures,
// then its tables.
type ExperimentReport = experiments.Report
