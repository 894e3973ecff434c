package exec

import (
	"errors"
	"sync"

	"hybridship/internal/catalog"
	"hybridship/internal/coherence"
	"hybridship/internal/disk"
	"hybridship/internal/faults"
	"hybridship/internal/netsim"
	"hybridship/internal/plan"
	"hybridship/internal/sim"
)

// The Session API exposes the execution engine to a serving layer (see
// internal/serve): one long-lived engine whose simulation is driven by the
// caller's own processes, executing many queries with per-query deadlines,
// per-site circuit breakers, and a fleet-wide retry budget. A Session is
// also the only engine: newSession builds every one, and Run, RunBound and
// RunMulti are closed runs on a Session (runClosed, run.go) that submit
// their queries, drive the simulation to its end, and read their counters
// from the Session's accessors.

// Sentinel errors the retry loop wraps when a serving-layer limit, rather
// than the retry cap, ends a query. Match with errors.Is.
var (
	ErrDeadlineExceeded     = errors.New("query deadline exceeded")
	ErrRetryBudgetExhausted = errors.New("fleet retry budget exhausted")
	ErrClientDown           = errors.New("client workstation is down")
)

// QueryOpts carries the per-query serving-layer options into the retry loop.
type QueryOpts struct {
	// Deadline is the absolute virtual time past which the query is aborted
	// (its in-flight attempt is torn down and the wasted work accounted) and
	// Execute returns ErrDeadlineExceeded. Zero means no deadline.
	Deadline float64

	// Client is the client cache stream the query reads through, in
	// [0, Config.Coherence.NumClients); a nil Config.Coherence has the one
	// client 0. If the stream's workstation is down the query fails with
	// ErrClientDown.
	Client int
}

// Roles distinguish how an attempt depends on a site, so breakers can trip
// independently per dependency kind. A site serves in RolePrimary when the
// attempt scans (or fetches from) the relation's home copy there, and in
// RoleSecondary when it serves a non-home replica (DESIGN.md §14). On an
// unreplicated catalog every dependency is RolePrimary, preserving the
// legacy single-breaker behaviour exactly.
const (
	RolePrimary = iota
	RoleSecondary
	numRoles
)

// SiteGate is the serving layer's per-(site, role) circuit-breaker hook. The
// engine consults Allow for every site a new attempt depends on, Shed before
// each in-flight page-fault round trip, and reports attempt outcomes back.
// All calls happen on simulation processes, in deterministic kernel order.
type SiteGate interface {
	// Allow reports whether a new attempt may depend on the site in the given
	// role. It may consume a half-open probe slot, so it is called once per
	// (attempt, site, role), not per operation.
	Allow(site, role int) bool
	// Shed reports whether an in-flight fetch to the site should be abandoned
	// (breaker hard-open, no probe due). Unlike Allow it never consumes a
	// probe slot: the probe attempt itself must be able to keep fetching.
	Shed(site, role int) bool
	// ReportSuccess records positive evidence: a completed fetch round trip
	// or a completed attempt (for every site and role it depended on).
	ReportSuccess(site, role int)
	// ReportFailure records the site and role a failed attempt's abort was
	// attributed to (crash, fetch timeout, or down at scan time).
	ReportFailure(site, role int)
}

// RetryGate is the serving layer's fleet-wide retry budget: consulted once
// per retry, after the failed round is counted. Returning false fails the
// query with ErrRetryBudgetExhausted instead of backing off.
type RetryGate interface {
	AllowRetry() bool
}

// SessionOptions configures the serving-layer hooks of a Session.
type SessionOptions struct {
	Gate  SiteGate
	Retry RetryGate
}

// Session is one long-lived engine serving many queries. The caller spawns
// its own processes on Simulator() (arrival generators, admission workers)
// and calls Execute from them; Run drives the simulation to completion.
type Session struct {
	e *engine
}

// NewSession builds the engine for serving: it installs the session's
// circuit breakers and retry budget, and starts from the storage of a
// released session's pool.
func NewSession(cfg Config, opts SessionOptions) (*Session, error) {
	s, _, err := newSession(cfg, 0, nil)
	if err != nil {
		return nil, err
	}
	e := s.e
	e.siteGate = opts.Gate
	e.retryGate = opts.Retry
	if bp, ok := spareStorage.Get().(*batchPool); ok {
		e.pool = *bp
	}
	return s, nil
}

// newSession is the engine's one constructor, shared by NewSession and the
// closed runs. It validates cfg, binds n plans with bindQ, and only then
// builds the machine park, so a config or plan it rejects spawns nothing,
// not even on a shared Config.Kernel. The session it returns has no
// serving-layer gates and a private pool.
func newSession(cfg Config, n int, bindQ func(*Config, int) (*BoundPlan, error)) (*Session, []*BoundPlan, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	bound := make([]*BoundPlan, n)
	for i := range bound {
		var err error
		if bound[i], err = bindQ(&cfg, i); err != nil {
			return nil, nil, err
		}
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	return &Session{e: e}, bound, nil
}

// spareStorage holds the batch pools of released sessions. A new session
// starts from one, so a serving layer that runs session after session of the
// same shape reuses the join tables and batches of the last one instead of
// allocating them afresh, and its live heap no longer climbs a step per
// first-time join in every session. Only storage crosses: a pooled batch or
// table carries no rows into its next use, and which pool a session gets
// changes nothing simulated. Run, RunBound and RunMulti keep private pools.
var spareStorage sync.Pool

// Release hands the storage the session's pool holds to the next session
// built by NewSession. Call it once the session's simulation is over. The
// session stays usable: it continues on an empty pool, into which operators
// still holding storage release it.
func (s *Session) Release() {
	bp := new(batchPool)
	*bp, s.e.pool = s.e.pool, batchPool{}
	spareStorage.Put(bp)
}

// Simulator returns the session's simulation, for the caller's own processes.
func (s *Session) Simulator() *sim.Simulator { return s.e.sim }

// Now returns the current virtual time.
func (s *Session) Now() float64 { return s.e.sim.Now() }

// Run drives the simulation until no runnable processes remain and returns
// the final virtual time.
func (s *Session) Run() float64 { return s.e.sim.Run() }

// NumServers returns the number of server sites in the session's catalog.
func (s *Session) NumServers() int { return len(s.e.servers) }

// ChargeClientCPU charges instr instructions against the client CPU on
// process p — how the serving layer models query-optimization work.
func (s *Session) ChargeClientCPU(p *sim.Proc, instr float64) {
	s.e.client.chargeCPU(p, s.e.cfg.Params, instr)
}

// Bind binds root's logical annotations to physical sites and checks the
// result as RunBound checks an explicit binding. A plan is bound once, at
// session setup, and the BoundPlan serves every query that runs it.
func (s *Session) Bind(root *plan.Node) (*BoundPlan, error) {
	return bind(&s.e.cfg, root)
}

// Execute runs the plan bp, which this session's Bind returned, as one
// query to completion (or failure) on the calling process, which must be a
// process of this session's simulation. The returned QueryResult is
// populated even on error, so the serving layer can account the wasted
// work of expired and budget-killed queries.
func (s *Session) Execute(p *sim.Proc, qi int, bp *BoundPlan, qo QueryOpts) (QueryResult, error) {
	return s.e.execute(p, qi, bp, qo)
}

// ExecuteUpdate runs one update — client writes pages [page0, page0+pages)
// of rel at its home copy — through the coherence write protocol: submit to
// the home server, wait out the post-restart write grace and the relation's
// write slot, dirty the pages on disk, ship callback invalidations to every
// fresh leaseholder, and commit once all have acknowledged or their leases
// have expired. Requires Config.Coherence with a finite LeaseDuration.
func (s *Session) ExecuteUpdate(p *sim.Proc, client int, rel string, page0, pages int) (UpdateResult, error) {
	return s.e.runUpdate(p, client, rel, page0, pages)
}

// Coherence exposes the engine's coherence state (client liveness, staleness
// oracle, summary counters) to the serving layer. Every engine has one; with
// a nil Config.Coherence it is the one-client, infinite-lease state.
func (s *Session) Coherence() *coherence.State { return s.e.coh }

// FaultStats reports what the session's injector actually did (zero when
// fault injection is disabled).
func (s *Session) FaultStats() faults.Stats {
	if s.e.inj == nil {
		return faults.Stats{}
	}
	return s.e.inj.Stats()
}

// NetStats reports the session's LAN traffic counters — a fleet driver
// extracts them per group, where a one-shot Run would have folded them into
// its Result.
func (s *Session) NetStats() netsim.Stats { return s.e.net.Stats() }

// DiskStats reports the per-site aggregated disk counters, keyed like
// Result.DiskStats.
func (s *Session) DiskStats() map[catalog.SiteID]disk.Stats {
	out := map[catalog.SiteID]disk.Stats{catalog.Client: s.e.client.aggregateStats()}
	for _, sv := range s.e.servers {
		out[sv.id] = sv.aggregateStats()
	}
	return out
}
