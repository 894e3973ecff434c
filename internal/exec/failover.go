package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"hybridship/internal/catalog"
	"hybridship/internal/faults"
	"hybridship/internal/plan"
	"hybridship/internal/seedmix"
	"hybridship/internal/sim"
)

// Failure-aware execution. Every query runs as a sequence of attempts: the
// plan's site annotations are re-bound against the sites that are up right
// now (the execution-time half of §5's 2-step optimization, applied to
// availability instead of load), the attempt runs under an attemptState
// supervisor, and on abort the query backs off exponentially and tries
// again. A crash tears down the attempt through the sim kernel's Interrupt
// primitive; the wasted virtual time is accounted as AbortedWork.

// seedRetryLoop tags the per-query backoff-jitter RNG stream derived from
// the fault seed (seedLoadGen = 101 is the neighboring engine tag).
const seedRetryLoop int64 = 102

// retrySeed derives the per-query backoff-jitter stream from the fault seed
// through the repo-wide splitmix64 mixer, the engine's named counterpart to
// loadSeed: every seed that leaves the engine flows through seedmix, so
// hslint's seedflow check covers the derivation without a waiver.
func retrySeed(seed int64, qi int) int64 {
	return seedmix.Derive(seed, seedRetryLoop, int64(qi))
}

// failoverParams is Config.Faults' recovery settings with their defaults
// resolved, the engine's e.ftl.
type failoverParams struct {
	seed         int64
	fetchTimeout float64
	maxRetries   int
	backoffBase  float64
	backoffMax   float64
	warmup       float64
}

func newFailoverParams(fc *faults.Config) failoverParams {
	return failoverParams{
		seed:         fc.Seed,
		fetchTimeout: fc.FetchTimeoutOrDefault(),
		maxRetries:   fc.MaxRetriesOrDefault(),
		backoffBase:  fc.BackoffBaseOrDefault(),
		backoffMax:   fc.BackoffMaxOrDefault(),
		warmup:       fc.WarmupDelay,
	}
}

// backoff returns the wait before retry number attempt (0-based), jittered
// ±50% so synchronized failures do not retry in lockstep.
func (f *failoverParams) backoff(attempt int, rng *rand.Rand) float64 {
	d := f.backoffBase * math.Pow(2, float64(attempt))
	if d > f.backoffMax {
		d = f.backoffMax
	}
	return d * (0.5 + rng.Float64())
}

// Abort reasons (also surfaced in errors and traces).
const (
	reasonSiteCrash    = "server crashed"
	reasonSiteDown     = "server is down"
	reasonFetchTimeout = "page-fault fetch timed out"
	reasonHelper       = "producer process interrupted"
	reasonTeardown     = "attempt aborted"
	reasonDeadline     = "query deadline exceeded"
	reasonBreakerOpen  = "circuit breaker open for a dependency site"
	reasonClientCrash  = "client workstation crashed"
)

// attemptState supervises one execution attempt of one query: the main
// (consumer) process, the helper daemons it spawned (network producers), and
// the set of server sites the attempt depends on. A site crash aborts every
// registered attempt that depends on it by interrupting its main process;
// the main process's recovery handler then tears down the helpers.
type attemptState struct {
	e        *engine
	mainProc *sim.Proc
	main     sim.Ref
	helpers  []sim.Ref
	deps     []uint8 // per-server role bitmask: which roles of that site the attempt needs
	failed   bool
	finished bool
	reason   string

	// failSite is the server whose failure killed the attempt (-1 when the
	// abort had no attributable site, e.g. a deadline), and failRole the
	// replica role the attempt was using it in. A session's SiteGate learns
	// about site health from this attribution.
	failSite int
	failRole int

	// One synchronous page-fault fetch may be outstanding per attempt. The
	// engine's fetch watchdog aborts the attempt if it is still on
	// fetchTimeout after fetchAt.
	fetchOn   bool
	fetchNo   int64   // the fetch's place in the engine's begin order
	fetchAt   float64 // when the fetch began
	fetchSite int     // source server of the outstanding fetch
	fetchRole int     // replica role of that source

	// Coherence: the client stream this attempt reads through and how many
	// stale cached pages the attempt read — folded into the oracle's
	// committed-read counter only if the attempt commits.
	client   int
	cohStale int64
}

func (e *engine) newAttempt(p *sim.Proc, bp *BoundPlan, b plan.Binding) *attemptState {
	return &attemptState{e: e, mainProc: p, main: p.Ref(), deps: e.attemptDeps(bp, b), failSite: -1}
}

// Dependency role bits: a scan served by the relation's home depends on the
// site in its primary role; a scan served by another replica (or relocated
// operator work) charges the secondary role. Per-(site, role) circuit
// breakers key on this split so a tripped primary does not shed work headed
// for a healthy secondary.
const (
	depPrimaryBit   = 1 << RolePrimary
	depSecondaryBit = 1 << RoleSecondary
)

// attemptDeps computes which server sites the attempt needs alive, as a
// per-server role bitmask: every site an operator is bound to, plus the
// fetch source of any client-bound scan whose relation is not fully cached
// (page faults go to the replica the attempt's rebind chose).
func (e *engine) attemptDeps(bp *BoundPlan, b plan.Binding) []uint8 {
	deps := make([]uint8, len(e.servers))
	for i := range bp.flat.Nodes {
		nd, s := &bp.flat.Nodes[i], b[i]
		if nd.Kind != plan.KindScan {
			if s != catalog.Client {
				deps[int(s)] |= depPrimaryBit
			}
			continue
		}
		if s == catalog.Client {
			if bp.facts[i].cached {
				continue
			}
			s = e.rb.srcs[i]
		}
		r := e.cfg.Catalog.ByID(nd.Rel)
		bit := uint8(depPrimaryBit)
		if s != r.Home {
			bit = depSecondaryBit
		}
		deps[int(s)] |= bit
	}
	return deps
}

// abort requests the attempt be torn down: called by crash hooks and fetch
// watchdogs (never by the main process itself). Idempotent; a finished or
// already-failing attempt is left alone.
func (a *attemptState) abort(reason string) {
	if a.failed || a.finished {
		return
	}
	a.failed = true
	a.reason = reason
	a.main.Interrupt(reason)
}

// abortFrom is abort with the failing server (and the role the attempt was
// using it in) attributed, for aborts caused by an identifiable site (crash
// hooks, fetch watchdogs).
func (a *attemptState) abortFrom(reason string, site, role int) {
	if a.failed || a.finished {
		return
	}
	a.failSite = site
	a.failRole = role
	a.abort(reason)
}

// failFrom aborts the attempt from inside operator code running on process
// p, then unwinds p. When p is the main process the unwind itself delivers
// the abort (no interrupt needed); a helper additionally interrupts main.
func (a *attemptState) failFrom(p *sim.Proc, reason string) {
	if !a.failed && !a.finished {
		a.failed = true
		a.reason = reason
		if p != a.mainProc {
			a.main.Interrupt(reason)
		}
	}
	panic(sim.Interrupted{Reason: reason})
}

// failFromSite is failFrom with the failing server and role attributed.
func (a *attemptState) failFromSite(p *sim.Proc, reason string, site, role int) {
	if !a.failed && !a.finished {
		a.failSite = site
		a.failRole = role
	}
	a.failFrom(p, reason)
}

// addHelper registers a producer daemon spawned for this attempt, so
// teardown can interrupt it. Called at spawn time (before the helper first
// runs), so a helper can never outlive its attempt unsupervised.
func (a *attemptState) addHelper(p *sim.Proc) {
	a.helpers = append(a.helpers, p.Ref())
}

// teardown interrupts every registered helper; refs of helpers that already
// finished or unwound are skipped.
func (a *attemptState) teardown() {
	for _, h := range a.helpers {
		h.Interrupt(reasonTeardown)
	}
	a.helpers = nil
}

// fetchWatch is the engine's one fetch watchdog. It supervises every
// outstanding page-fault fetch of the engine's registered attempts with at
// most one pending kernel event: a fetch still on fetchTimeout after it
// began aborts its attempt, since a dead or partitioned server is
// indistinguishable from a slow one at the protocol level. The timeout is
// the same for every fetch and fetches begin in time order, so the instant
// the watchdog is armed for is never later than any outstanding deadline.
type fetchWatch struct {
	begun int64  // fetches begun on the engine, numbering them in begin order
	armed bool   // a check is pending
	check func() // e.checkFetches, bound once in newEngine
}

// beginFetch marks a synchronous page-fault round trip as outstanding and
// arms the engine's fetch watchdog for its deadline if the watchdog is idle.
func (a *attemptState) beginFetch(site, role int) {
	e := a.e
	w := &e.watch
	w.begun++
	a.fetchOn, a.fetchNo, a.fetchAt = true, w.begun, e.sim.Now()
	a.fetchSite, a.fetchRole = site, role
	if !w.armed {
		w.armed = true
		e.sim.At(a.fetchAt+e.ftl.fetchTimeout, w.check)
	}
}

func (a *attemptState) endFetch() { a.fetchOn = false }

// checkFetches is the fetch watchdog's callback. It aborts every registered
// attempt whose fetch has reached its deadline, in the order the fetches
// began, then re-arms for the earliest deadline left or goes idle.
func (e *engine) checkFetches() {
	now, timeout := e.sim.Now(), e.ftl.fetchTimeout
	for {
		var first *attemptState
		for _, a := range e.attempts {
			if a.fetchOn && !a.failed && a.fetchAt+timeout <= now && (first == nil || a.fetchNo < first.fetchNo) {
				first = a
			}
		}
		if first == nil {
			break
		}
		first.abortFrom(reasonFetchTimeout, first.fetchSite, first.fetchRole)
	}
	next := math.Inf(1)
	for _, a := range e.attempts {
		if a.fetchOn && !a.failed {
			next = min(next, a.fetchAt+timeout)
		}
	}
	e.watch.armed = next < math.Inf(1)
	if e.watch.armed {
		e.sim.At(next, e.watch.check)
	}
}

// registerAttempt/unregisterAttempt maintain the engine's list of in-flight
// attempts that crash hooks and the fetch watchdog consult.
func (e *engine) registerAttempt(a *attemptState) {
	e.attempts = append(e.attempts, a)
}

func (e *engine) unregisterAttempt(a *attemptState) {
	for i, x := range e.attempts {
		if x == a {
			e.attempts = append(e.attempts[:i], e.attempts[i+1:]...)
			return
		}
	}
}

// crashServer is the injector's crash hook: flip the site down, lose its
// volatile disk state, and abort every attempt that depends on it. The
// abort is attributed in the role the attempt was using the site in
// (primary wins when both roles depend on it).
func (e *engine) crashServer(i int) {
	s := e.servers[i]
	s.up = false
	for _, d := range s.disks {
		d.CrashRestart()
	}
	// Volatile lease/callback tables die with the site; in-flight writes
	// abort and their parked writers wake to observe the crash.
	e.coh.CrashServer(i)
	for _, att := range e.attempts {
		if bits := att.deps[i]; bits != 0 {
			role := RolePrimary
			if bits&depPrimaryBit == 0 {
				role = RoleSecondary
			}
			att.abortFrom(reasonSiteCrash, i, role)
		}
	}
}

// siteUp reports whether a binding target is currently usable. The client
// never fails (it is the machine the user is sitting at; if it dies there is
// no query to answer).
func (e *engine) siteUp(id catalog.SiteID) bool {
	if id == catalog.Client {
		return true
	}
	return e.servers[int(id)].up
}

// siteWarming reports whether a restarted site is still inside its warm-up
// window (faults.Config.WarmupDelay); warming copies are deprioritized by
// pickCopy but never excluded, so the rule is inert at replication factor 1.
func (e *engine) siteWarming(id catalog.SiteID) bool {
	if id == catalog.Client {
		return false
	}
	return e.sim.Now() < e.servers[int(id)].warmUntil
}

// pickCopy chooses the serving site for a scan of r whose binding chose the
// copy at want. Preference order: the wanted copy if it is up and warm, then
// the other copies in list order (the primary first) that are up and warm,
// then — so a fleet of freshly restarted sites is still usable — the same
// two passes with warming sites allowed. ok is false when every copy is
// down. With a single copy this degenerates to e.siteUp(want), the exact
// legacy liveness test.
func (e *engine) pickCopy(r *catalog.Relation, want catalog.SiteID) (_ catalog.SiteID, ok bool) {
	if e.siteUp(want) && !e.siteWarming(want) {
		return want, true
	}
	for i := 0; i < r.NumCopies(); i++ {
		if s := r.CopySite(i); s != want && e.siteUp(s) && !e.siteWarming(s) {
			return s, true
		}
	}
	if e.siteUp(want) {
		return want, true
	}
	for i := 0; i < r.NumCopies(); i++ {
		if s := r.CopySite(i); s != want && e.siteUp(s) {
			return s, true
		}
	}
	return want, false
}

// rebindState is the engine's reused re-binding scratch: the effective
// binding, each client scan's page-fault source, and the attempt's verdict,
// as slices indexed by node ID. One instance lives on the engine — the
// kernel runs one process at a time and a binding is consumed synchronously
// (gate check, dependency set, operator construction) before the next park
// point, so reuse is safe and the per-attempt hot path allocates nothing.
type rebindState struct {
	eff       plan.Binding
	srcs      []catalog.SiteID // client scans: the replica page faults go to
	runnable  bool
	failovers int64
}

// rebind maps the plan's compile-time binding onto the surviving replicas.
// Site liveness is consulted at call time — once per attempt — so a site
// that recovers mid-backoff is eligible again on the very next attempt:
//
//   - A scan whose wanted copy is dead is served by another live replica
//     (pickCopy), falling back to the client iff the relation is fully
//     cached there (client-side data shipping); with no live copy and only
//     a partial cache the query is not runnable until a copy restarts.
//   - A client-bound scan with page faults outstanding likewise fetches
//     from the preferred live replica; the chosen source is recorded for
//     newScan and the dependency set.
//   - Any other operator at a dead site is relocated to its left (build)
//     child's effective site when that survives, else to the client —
//     the hybrid-shipping move of annotating operators at execution time.
//
// Every scan served by a replica other than the one the binding chose
// counts as a replica failover. The returned binding aliases the engine's
// scratch and is valid only until the next rebind call.
func (e *engine) rebind(bp *BoundPlan) (plan.Binding, bool) {
	rb := &e.rb
	n := len(bp.sites)
	rb.eff = slices.Grow(rb.eff[:0], n)[:n]
	rb.srcs = slices.Grow(rb.srcs[:0], n)[:n]
	rb.runnable = true
	rb.failovers = 0
	for _, i := range bp.flat.Post {
		nd, want := &bp.flat.Nodes[i], bp.sites[i]
		if nd.Kind != plan.KindScan {
			eff := want
			if !e.siteUp(eff) {
				eff = catalog.Client
				if nd.Left >= 0 && e.siteUp(rb.eff[nd.Left]) {
					eff = rb.eff[nd.Left]
				}
			}
			rb.eff[i] = eff
			continue
		}
		r, fully := e.cfg.Catalog.ByID(nd.Rel), bp.facts[i].cached
		rb.eff[i], rb.srcs[i] = want, r.Home
		if want != catalog.Client {
			if s, ok := e.pickCopy(r, want); ok {
				if s != want {
					rb.failovers++
				}
				rb.eff[i] = s
			} else if fully {
				rb.eff[i] = catalog.Client // ship cached data client-side
			} else {
				rb.runnable = false
			}
			continue
		}
		if !fully {
			// The faulted remainder needs a live copy as its fetch source.
			if s, ok := e.pickCopy(r, r.Home); !ok {
				rb.runnable = false
			} else if s != r.Home {
				rb.failovers++
				rb.srcs[i] = s
			}
		}
	}
	return rb.eff, rb.runnable
}

// deadlineState is the per-query deadline watchdog's shared state. The
// watchdog cannot hold a sim.Ref to the query process — every delivered
// attempt abort bumps the process generation and would invalidate it — so
// it works through a done flag (the kernel runs one process at a time, so
// plain fields suffice): if an attempt is in flight at the deadline
// the watchdog aborts it through the supervisor; if the query is between
// attempts (backoff sleep) it interrupts the process directly.
type deadlineState struct {
	proc *sim.Proc
	at   float64
	att  *attemptState // the in-flight attempt, if any
	done bool
}

// armDeadline schedules the watchdog that enforces the absolute deadline
// at; a deadline already passed fires at once.
func (e *engine) armDeadline(p *sim.Proc, at float64) *deadlineState {
	dl := &deadlineState{proc: p, at: at}
	now := e.sim.Now()
	if at > now {
		// Where a hold of at-now lands, which rounding can set apart from
		// at; the simulated results are pinned to this instant.
		now += at - now
	}
	e.sim.At(now, dl.fire)
	return dl
}

// fire is the deadline watchdog's callback.
func (dl *deadlineState) fire() {
	if dl.done {
		return
	}
	if dl.att != nil {
		dl.att.abort(reasonDeadline)
		return
	}
	dl.proc.Interrupt(reasonDeadline)
}

func (dl *deadlineState) disarm() { dl.done = true }

// expired reports whether the deadline has passed; nil-safe so callers need
// no deadline/no-deadline branching.
func (dl *deadlineState) expired(now float64) bool {
	return dl != nil && now >= dl.at
}

// holdInterruptible holds p for dt, absorbing a cancellation delivered
// mid-sleep, and reports whether the full sleep completed. The retry loop
// uses it for backoff so an interrupted sleep is not accounted as backoff
// time actually spent.
func holdInterruptible(p *sim.Proc, dt float64) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(sim.Interrupted); !ok {
				panic(r)
			}
		}
	}()
	p.Hold(dt)
	return true
}

// gateDenied returns the first attempt-dependency (site, role) the session's
// circuit breakers refuse, or -1 when every needed dependency is admitted.
func (e *engine) gateDenied(bp *BoundPlan, b plan.Binding) int {
	for i, bits := range e.attemptDeps(bp, b) {
		if bits&depPrimaryBit != 0 && !e.siteGate.Allow(i, RolePrimary) {
			return i
		}
		if bits&depSecondaryBit != 0 && !e.siteGate.Allow(i, RoleSecondary) {
			return i
		}
	}
	return -1
}

// reportAttempt feeds an attempt's outcome back to the session's circuit
// breakers: success clears every dependency (site, role), failure charges
// the one the abort was attributed to (if any).
func (e *engine) reportAttempt(att *attemptState, completed bool) {
	g := e.siteGate
	if g == nil {
		return
	}
	if completed {
		for i, bits := range att.deps {
			if bits&depPrimaryBit != 0 {
				g.ReportSuccess(i, RolePrimary)
			}
			if bits&depSecondaryBit != 0 {
				g.ReportSuccess(i, RoleSecondary)
			}
		}
		return
	}
	if att.failSite >= 0 {
		g.ReportFailure(att.failSite, att.failRole)
	}
}

// execute runs one query on process p and reports it: every entry point's
// per-query result is assembled here.
func (e *engine) execute(p *sim.Proc, qi int, bp *BoundPlan, qo QueryOpts) (QueryResult, error) {
	start := e.sim.Now()
	out, err := e.runQuery(p, qi, bp, qo)
	out.ResponseTime = e.sim.Now() - start
	return out, err
}

// runQuery executes one query to completion on process p. It is the retry
// loop: re-bind against survivors, attempt under a supervisor, and on
// failure back off exponentially (deterministically jittered per query)
// before retrying. A query whose first attempt completes draws nothing, so
// the jitter RNG is seeded at the first backoff. qo carries the per-query
// serving-layer options (deadline); sessions additionally install site and
// retry gates on the engine.
// It fills every field of the result but the response time.
func (e *engine) runQuery(p *sim.Proc, qi int, bp *BoundPlan, qo QueryOpts) (QueryResult, error) {
	var out QueryResult
	if n := e.coh.NumClients(); qo.Client < 0 || qo.Client >= n {
		return out, fmt.Errorf("exec: query %d: client %d out of range [0,%d)", qi, qo.Client, n)
	}
	var rng *rand.Rand
	var dl *deadlineState
	if qo.Deadline > 0 {
		dl = e.armDeadline(p, qo.Deadline)
		defer dl.disarm()
	}
	lastReason := "no surviving binding for every scan"
	for attempt := 0; ; attempt++ {
		if dl.expired(e.sim.Now()) {
			return out, fmt.Errorf("exec: query %d: %w after %d attempts: %s", qi, ErrDeadlineExceeded, attempt, lastReason)
		}
		if !e.coh.ClientUp(qo.Client) {
			// The issuing client workstation is down: there is no one left
			// to deliver the answer to (or to retry for).
			return out, fmt.Errorf("exec: query %d: %w", qi, ErrClientDown)
		}
		eff, runnable := e.rebind(bp)
		if runnable && e.siteGate != nil {
			if s := e.gateDenied(bp, eff); s >= 0 {
				runnable = false
				lastReason = reasonBreakerOpen
			}
		}
		if runnable {
			out.ReplicaFailovers += e.rb.failovers
			start := e.sim.Now()
			att := e.newAttempt(p, bp, eff)
			att.client = qo.Client
			if dl != nil {
				dl.att = att
			}
			tuples, completed := e.attemptOnce(p, att, bp, eff)
			if dl != nil {
				dl.att = nil
			}
			p.ClearInterrupt() // defuse an abort that raced with completion
			e.reportAttempt(att, completed)
			if completed {
				if att.cohStale > 0 {
					e.coh.NoteCommittedReads(att.cohStale)
				}
				out.ResultTuples = tuples
				return out, nil
			}
			lastReason = att.reason
			out.AbortedWork += e.sim.Now() - start
		}
		out.Retries++
		if attempt >= e.ftl.maxRetries {
			return out, fmt.Errorf("exec: query %d failed after %d attempts: %s", qi, attempt+1, lastReason)
		}
		if dl.expired(e.sim.Now()) {
			return out, fmt.Errorf("exec: query %d: %w after %d attempts: %s", qi, ErrDeadlineExceeded, attempt+1, lastReason)
		}
		if e.retryGate != nil && !e.retryGate.AllowRetry() {
			return out, fmt.Errorf("exec: query %d: %w after %d attempts: %s", qi, ErrRetryBudgetExhausted, attempt+1, lastReason)
		}
		// A failed attempt whose scans can fail over to a surviving replica
		// retries immediately: backoff exists to avoid hammering a down site,
		// and the re-bound attempt no longer touches one. (runnable is still
		// true here iff an attempt actually ran and failed — a gate denial
		// must keep backing off or it would spin.) The probe rebind is pure —
		// no virtual time, no RNG draw — and with a single copy failovers is
		// always zero, so the legacy backoff sequence is bit-identical.
		if runnable {
			if _, ok := e.rebind(bp); ok && e.rb.failovers > 0 {
				out.BackoffSkips++
				continue
			}
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(retrySeed(e.ftl.seed, qi)))
		}
		d := e.ftl.backoff(attempt, rng)
		if holdInterruptible(p, d) {
			// Only a completed sleep is backoff time actually spent; an
			// interrupted one (deadline mid-backoff) is accounted by the
			// expiry check on the next iteration.
			out.BackoffTime += d
		}
	}
}

// attemptOnce runs a single bound attempt under the supervisor. It returns
// completed == false when the attempt was aborted (the Interrupted unwind is
// absorbed here and the helpers are torn down); any other panic propagates.
func (e *engine) attemptOnce(p *sim.Proc, att *attemptState, bp *BoundPlan, b plan.Binding) (tuples int64, completed bool) {
	defer func() {
		r := recover()
		att.finished = true
		e.unregisterAttempt(att)
		if r != nil {
			if _, isIntr := r.(sim.Interrupted); !isIntr {
				panic(r)
			}
			att.teardown()
			completed = false
		}
	}()
	e.registerAttempt(att)
	return e.runPlan(p, bp, b, att), true
}
