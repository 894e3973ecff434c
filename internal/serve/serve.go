// Package serve is the overload-robust multi-query serving layer: a
// deterministic multi-tenant query front-end that runs inside the simulator
// and drives the execution engine for a stream of concurrent queries.
//
// The paper measures how DS/QS/HY respond times degrade as server load
// rises; this layer asks the follow-on production question — what keeps the
// system upright when offered load exceeds capacity? Five mechanisms,
// composed in admission order:
//
//		arrival → token bucket → bounded queue → degradation level → worker
//		         (rate limit)   (admission)     (fresh/cached/static plan)
//		                                          ↓
//		                            exec.Session (deadline, breakers, budget)
//
//	  - Admission control: a token-bucket rate limiter in front of a bounded
//	    accept queue. Rejected queries are counted, not executed.
//	  - Deadline propagation: each admitted query carries a deadline drawn
//	    from its seedmix stream; exec aborts the in-flight attempt when it
//	    expires and the wasted work is accounted.
//	  - Per-site circuit breakers (breaker.go) wrap every fetch, so a crashed
//	    or stalled site sheds load instead of burning retries and timeouts.
//	  - A fleet-wide retry budget converts per-query exponential backoff into
//	    a system that cannot retry-storm itself during an outage.
//	  - Graceful degradation: under queue pressure new admissions downgrade
//	    from fresh optimization to a bounded plan cache, and past a second
//	    watermark to a cheap static plan, recovering by hysteresis.
//
// Everything runs on the simulation kernel — workers and queries are
// processes, the arrival stream is a clock, and the kernel runs one of them
// at a time in deterministic order — so all serving state is plain fields
// and every Result is DeepEqual-identical across GOMAXPROCS.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"hybridship/internal/coherence"
	"hybridship/internal/exec"
	"hybridship/internal/plan"
	"hybridship/internal/seedmix"
	"hybridship/internal/sim"
)

// Stream tags of the serving layer's seedmix-derived randomness (seedProbe =
// 203 lives in breaker.go; the engine uses 101/102, faults 1–4).
const (
	seedArrival  int64 = 201
	seedDeadline int64 = 202
)

// Degradation levels: what a query admitted at that level costs to plan.
const (
	LevelFresh  = iota // full optimization, charged as OptInst client CPU
	LevelCached        // bounded plan cache; a miss pays OptInst, a hit PlanLookupFrac
	LevelStatic        // precompiled static plan, free
)

// PlanLookupFrac is the cost of a plan-cache hit as a fraction of OptInst.
const PlanLookupFrac = 0.01

// Config describes one serving run.
type Config struct {
	// Exec configures the shared execution engine (catalog, query, machine
	// park, optional fault injection). Exec.Seed also seeds the session.
	Exec exec.Config

	// Seed drives the serving layer's own streams: arrivals, per-query
	// deadline jitter, and breaker probe schedules.
	Seed int64

	NumQueries  int     // total offered queries
	ArrivalRate float64 // Poisson arrivals per virtual second

	// Deadline is the mean relative deadline; each query's own deadline is
	// jittered ±25% from its seedmix stream. 0 disables deadlines.
	Deadline float64

	MPL      int // admitted queries executing concurrently
	QueueCap int // bounded accept queue length

	// RateLimit is the token-bucket refill rate (queries/second); 0 disables
	// the limiter. Burst is the bucket capacity (default: 1).
	RateLimit float64
	Burst     int

	Breaker BreakerParams

	// RetryBudget caps fleet-wide granted retries at this fraction of the
	// queries started so far (e.g. 0.1 → retries ≤ 10% of requests).
	// 0 disables the budget.
	RetryBudget float64

	// Degradation watermarks on queue depth, with hysteresis: depth ≥
	// DegradeHi moves new admissions to the plan cache, depth ≥ StaticHi to
	// the static plan; recovery needs depth ≤ the matching Lo mark.
	// DegradeHi == 0 disables degradation (all admissions stay fresh).
	DegradeHi, DegradeLo int
	StaticHi, StaticLo   int

	// OptInst is the client-CPU cost (instructions) of one fresh query
	// optimization; what degradation saves.
	OptInst float64

	// Query classes: an admitted query belongs to class id%Classes and runs
	// FreshPlans[class] (also the plan-cache entry for that class). The
	// static fallback is StaticPlan for every class.
	Classes    int
	FreshPlans []*plan.Node
	StaticPlan *plan.Node

	// Updates makes the workload write-bearing: when it returns ok for an
	// admitted slot qi, the worker dirties pages [page0, page0+pages) of rel
	// through the coherence write protocol instead of executing the read
	// query. Requires Exec.Coherence with a finite LeaseDuration;
	// workload.WriteMix builds a deterministic one.
	Updates func(qi int) (rel string, page0, pages int, ok bool)

	// Disabled turns the serving layer off — every arrival is admitted
	// immediately with unbounded concurrency, fresh optimization, no
	// breakers and no retry budget — the collapse baseline of the overload
	// grid. Deadlines still apply: an overloaded system without admission
	// control does not get to ignore its clients' patience.
	Disabled bool
}

// Transition is one degradation-level change, for `csq run overload -v`.
type Transition struct {
	At       float64 // virtual time
	From, To int     // degradation levels
	Depth    int     // queue depth that triggered the change
}

// Result reports one serving run. Every field is deterministic: DeepEqual
// across GOMAXPROCS and repeated runs.
type Result struct {
	Offered       int64 // arrivals
	RejectedRate  int64 // shed by the token bucket
	RejectedQueue int64 // shed by the full accept queue
	Admitted      int64

	Completed int64 // finished within deadline
	Expired   int64 // deadline exceeded
	Failed    int64 // retry budget or retry cap exhausted

	FreshServed  int64 // admissions at LevelFresh
	CachedServed int64 // admissions at LevelCached
	StaticServed int64 // admissions at LevelStatic

	PlanCacheHits   int64
	PlanCacheMisses int64

	Retries        int64 // failed rounds observed by exec, all queries
	RetriesGranted int64 // retries the fleet budget granted

	AbortedWork float64 // virtual seconds of aborted attempts
	BackoffTime float64 // virtual seconds of completed backoff sleeps

	Elapsed float64 // virtual time when the simulation drained
	Goodput float64 // Completed / Elapsed, queries per virtual second

	// Response-time statistics over completed queries, measured from
	// arrival (queue wait included).
	MeanRT, P50RT, P99RT float64

	BreakerOpens int64 // total breaker open transitions across sites

	Transitions []Transition

	// Coherence-enabled runs (Exec.Coherence set); all zero otherwise.
	ShedClientDown   int64 // arrivals shed because their workstation was down
	FailedClientDown int64 // admitted work aborted by a client crash (⊂ Failed)
	Updates          int64 // admitted slots dispatched as writes
	UpdatesCommitted int64
	UpdatesBounded   int64   // committed at the lease bound with acks missing
	Invalidations    int64   // callback invalidations shipped before commits
	UpdateWaitTime   float64 // virtual time writers spent parked

	// Streams attributes per-client-stream load, separating the coherence
	// control traffic (callbacks, renewals) from the query traffic proper;
	// nil when coherence is off. Coherence is the protocol's own roll-up,
	// including the staleness oracle's verdict.
	Streams   []StreamStats
	Coherence *coherence.Summary
}

// StreamStats is one client stream's served load and coherence traffic. The
// callback-invalidation messages a stream receives (and acks) are protocol
// overhead charged to the shared network; reporting them per stream and
// separately from the stream's query count keeps overload diagnostics honest
// — a stream can be idle yet still generate callback traffic.
type StreamStats struct {
	Queries    int64 // read queries dispatched on this stream
	Updates    int64 // writes dispatched on this stream
	Completed  int64 // queries + updates that finished successfully
	ShedDown   int64 // arrivals shed while the workstation was down
	FailedDown int64 // admitted work aborted by a client crash

	// From the coherence protocol state (coherence.ClientStats).
	CacheHitPages  int64
	CacheMissPages int64
	LeaseRenewals  int64
	CallbackMsgs   int64 // invalidations + acks on this stream, not query traffic
	CallbackBytes  int64
}

// task is one admitted query riding the accept queue.
type task struct {
	id       int
	class    int
	client   int // client cache stream (id % NumClients; 0 without a configured fleet)
	arrival  float64
	deadline float64 // absolute; 0 = none
	level    int
}

// admission is the token-bucket + bounded-queue decision state, factored out
// so the fast path (one comparison and two multiplications, no allocation)
// can be benchmarked in isolation.
type admission struct {
	rate   float64 // tokens per second; 0 disables the bucket
	burst  float64
	tokens float64
	at     float64 // last refill time
}

// Admission verdicts.
const (
	admitOK = iota
	admitShedRate
	admitShedQueue
)

// allow refills the bucket to now and decides one arrival given the current
// queue depth; on admitOK the token is consumed.
func (a *admission) allow(now float64, depth, queueCap int) int {
	if a.rate > 0 {
		a.tokens += (now - a.at) * a.rate
		if a.tokens > a.burst {
			a.tokens = a.burst
		}
		a.at = now
		if a.tokens < 1 {
			return admitShedRate
		}
	}
	if depth >= queueCap {
		return admitShedQueue
	}
	if a.rate > 0 {
		a.tokens--
	}
	return admitOK
}

// planCache records, per query class, whether its compiled plan is cached.
// It has room for every class, so nothing is ever evicted: two workers that
// miss one class while the first still charges OptInst both insert it, and
// the second insert changes nothing.
type planCache []bool

func (c planCache) hit(class int) bool { return c[class] }

func (c planCache) insert(class int) { c[class] = true }

// retryBudget implements exec.RetryGate: grant-if-under-budget, so granted
// retries can never exceed ratio × requests at any point in the run.
type retryBudget struct {
	ratio    float64
	requests int64 // queries started
	granted  int64
}

func (b *retryBudget) AllowRetry() bool {
	if float64(b.granted+1) > b.ratio*float64(b.requests) {
		return false
	}
	b.granted++
	return true
}

// server is one serving run's mutable state. Only the kernel's processes
// and the arrival clock touch it, one at a time.
type server struct {
	cfg     Config
	ses     *exec.Session
	sm      *sim.Simulator
	queue   *sim.Buffer
	adm     admission
	cache   planCache
	budget  *retryBudget
	brk     *BreakerSet
	level   int
	freshB  []*exec.BoundPlan
	staticB *exec.BoundPlan
	res     Result
	rts     []float64
	streams []StreamStats // per client stream; nil without a configured fleet
}

// Server is a constructed serving run whose simulation the caller drives: a
// fleet driver places several of them on the shards of a coordinator (via
// Exec.Kernel), runs the shared kernels, then collects each one's Result.
// For the ordinary single-instance case use Run, which owns the kernel.
type Server struct {
	s *server
}

// Run executes one serving run to completion and returns its metrics.
func Run(cfg Config) (Result, error) {
	sv, err := Start(cfg)
	if err != nil {
		return Result{}, err
	}
	return sv.Finish(sv.s.ses.Run()), nil
}

// Start validates cfg, builds the session (on Exec.Kernel if set) and starts
// the arrival clock and the worker processes. The simulation has not
// advanced yet; the caller drives the kernel and then calls Finish.
func Start(cfg Config) (*Server, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	s := &server{cfg: cfg}
	var opts exec.SessionOptions
	if !cfg.Disabled {
		if cfg.RetryBudget > 0 {
			s.budget = &retryBudget{ratio: cfg.RetryBudget}
			opts.Retry = s.budget
		}
		// The breaker clock reads the session's simulator through s.sm,
		// which is set right after the session is built.
		s.brk = NewBreakerSet(func() float64 { return s.sm.Now() },
			cfg.Exec.Catalog.NumServers, cfg.Seed, cfg.Breaker)
		opts.Gate = s.brk
	}
	ses, err := exec.NewSession(cfg.Exec, opts)
	if err != nil {
		return nil, err
	}
	s.ses = ses
	s.sm = ses.Simulator()
	for _, root := range cfg.FreshPlans {
		b, err := s.ses.Bind(root)
		if err != nil {
			return nil, err
		}
		s.freshB = append(s.freshB, b)
	}
	s.staticB, err = s.ses.Bind(cfg.StaticPlan)
	if err != nil {
		return nil, err
	}
	s.adm = admission{rate: cfg.RateLimit, burst: float64(burst(cfg)), tokens: float64(burst(cfg))}
	s.cache = make(planCache, cfg.Classes)
	if c := cfg.Exec.Coherence; c != nil {
		s.streams = make([]StreamStats, c.NumClients)
	}

	s.spawnArrivals()
	if !cfg.Disabled {
		s.queue = sim.NewBuffer(s.sm, "serve:accept", cfg.QueueCap)
		s.spawnWorkers()
	}
	return &Server{s: s}, nil
}

// Session exposes the underlying exec session, for fleet drivers that place
// the server on a shared kernel and extract per-group engine stats.
func (sv *Server) Session() *exec.Session { return sv.s.ses }

// Completed reports the number of queries finished within deadline so far —
// live state a progress ticker may sample mid-run.
func (sv *Server) Completed() int64 { return sv.s.res.Completed }

// Done reports whether every offered query has reached a terminal state
// (completed, expired, failed, or shed at admission). Once true it stays
// true: the server's remaining work is zero.
func (sv *Server) Done() bool {
	r := &sv.s.res
	return r.Completed+r.Expired+r.Failed+r.RejectedRate+r.RejectedQueue+r.ShedClientDown == int64(sv.s.cfg.NumQueries)
}

// Finish derives the run's summary statistics, releases the session's
// engine storage to the next server's session, and returns the Result. The
// caller passes the run's elapsed virtual time — the kernel's final time for
// a standalone run, or the fleet-wide completion time for a sharded one (a
// shard's own final clock depends on how far its last window overshot, so it
// is not a fleet-level observable).
func (sv *Server) Finish(elapsed float64) Result {
	sv.s.res.Elapsed = elapsed
	sv.s.finish()
	sv.s.ses.Release()
	return sv.s.res
}

func validate(cfg *Config) error {
	switch {
	case cfg.NumQueries <= 0:
		return fmt.Errorf("serve: NumQueries must be positive")
	case cfg.ArrivalRate <= 0:
		return fmt.Errorf("serve: ArrivalRate must be positive")
	case cfg.Classes <= 0 || len(cfg.FreshPlans) != cfg.Classes:
		return fmt.Errorf("serve: need exactly Classes fresh plans")
	case cfg.StaticPlan == nil:
		return fmt.Errorf("serve: need a static fallback plan")
	}
	if !cfg.Disabled {
		if cfg.MPL <= 0 {
			return fmt.Errorf("serve: MPL must be positive")
		}
		if cfg.QueueCap <= 0 {
			return fmt.Errorf("serve: QueueCap must be positive")
		}
	}
	if cfg.DegradeHi > 0 {
		if cfg.DegradeLo >= cfg.DegradeHi || cfg.StaticLo >= cfg.StaticHi || cfg.StaticHi < cfg.DegradeHi {
			return fmt.Errorf("serve: watermarks need Lo < Hi and DegradeHi <= StaticHi")
		}
	}
	if cfg.Updates != nil {
		if c := cfg.Exec.Coherence; c == nil || c.LeaseDuration <= 0 {
			return fmt.Errorf("serve: updates require coherence with a finite lease duration")
		}
	}
	return nil
}

func burst(cfg Config) int {
	if cfg.Burst <= 0 {
		return 1
	}
	return cfg.Burst
}

// unit maps a seedmix stream value into [0, 1).
func unit(v int64) float64 { return float64(uint64(v)) / (1 << 63) }

// deadlineAt draws query qi's absolute deadline: the mean relative deadline
// jittered ±25% by the query's seedmix stream.
func (s *server) deadlineAt(now float64, qi int) float64 {
	if s.cfg.Deadline <= 0 {
		return 0
	}
	u := unit(seedmix.Derive(s.cfg.Seed, seedDeadline, int64(qi)))
	return now + s.cfg.Deadline*(0.75+0.5*u)
}

// spawnArrivals starts the Poisson arrival clock. It is live, so Run keeps
// going between arrivals even in the Disabled mode, which has no workers;
// after the last arrival it closes the accept queue.
func (s *server) spawnArrivals() {
	delays := arrivalDelays(s.cfg)
	i := 0
	s.sm.SpawnClock(func() string { return "serve:arrivals" }, true,
		func() (float64, bool) {
			if i == len(delays) {
				return 0, false
			}
			return delays[i], true
		},
		func() {
			s.arrive(i)
			if i++; i == len(delays) && s.queue != nil {
				s.queue.Close()
			}
		})
}

// arrivalDelays precomputes the exponential inter-arrival gaps from the
// arrival seed stream, so enabled and disabled runs of the same seed offer
// the exact same load.
func arrivalDelays(cfg Config) []float64 {
	delays := make([]float64, cfg.NumQueries)
	for i := range delays {
		u := unit(seedmix.Derive(cfg.Seed, seedArrival, int64(i)))
		// Inverse-CDF exponential; clamp u away from 1 to keep it finite.
		if u > 0.999999 {
			u = 0.999999
		}
		delays[i] = expInv(u) / cfg.ArrivalRate
	}
	return delays
}

// expInv is -ln(1-u), the unit-rate exponential quantile.
func expInv(u float64) float64 {
	return -math.Log(1 - u)
}

// clientFor assigns arrivals round-robin to the coherence client streams.
func (s *server) clientFor(qi int) int {
	if len(s.streams) == 0 {
		return 0
	}
	return qi % len(s.streams)
}

// shedDown reports (and counts) an arrival whose workstation is down: a dead
// client cannot even submit its query, so the shed happens before the
// server-side rate limiter sees it and costs no token.
func (s *server) shedDown(client int) bool {
	if s.ses.Coherence().ClientUp(client) {
		return false
	}
	s.res.ShedClientDown++
	s.streams[client].ShedDown++
	return true
}

// arrive admits or sheds one arrival. With the serving layer Disabled,
// every arrival whose workstation is up is admitted fresh and runs on its
// own process: unbounded concurrency, no gates.
func (s *server) arrive(qi int) {
	now := s.sm.Now()
	s.res.Offered++
	client := s.clientFor(qi)
	if s.shedDown(client) {
		return
	}
	lvl := LevelFresh
	if !s.cfg.Disabled {
		depth := s.queue.Len()
		switch s.adm.allow(now, depth, s.cfg.QueueCap) {
		case admitShedRate:
			s.res.RejectedRate++
			return
		case admitShedQueue:
			s.res.RejectedQueue++
			return
		}
		lvl = s.admitLevel(now, depth)
	}
	s.res.Admitted++
	switch lvl {
	case LevelFresh:
		s.res.FreshServed++
	case LevelCached:
		s.res.CachedServed++
	default:
		s.res.StaticServed++
	}
	t := task{
		id: qi, class: qi % s.cfg.Classes, client: client, arrival: now,
		deadline: s.deadlineAt(now, qi), level: lvl,
	}
	if s.cfg.Disabled {
		s.sm.SpawnLazyID(queryName, int64(qi), func(p *sim.Proc) { s.execute(p, t) })
		return
	}
	// Admission shed at QueueCap, the queue's capacity, so there is room.
	s.queue.PutNow(t)
}

// admitLevel applies the watermark/hysteresis controller to the pre-enqueue
// queue depth and records any level change.
func (s *server) admitLevel(now float64, depth int) int {
	if s.cfg.DegradeHi <= 0 {
		return LevelFresh
	}
	lvl := s.level
	// Escalate under pressure…
	if depth >= s.cfg.StaticHi {
		lvl = LevelStatic
	} else if depth >= s.cfg.DegradeHi && lvl == LevelFresh {
		lvl = LevelCached
	}
	// …and recover only once the queue has drained past the low marks.
	if lvl == LevelStatic && depth <= s.cfg.StaticLo {
		lvl = LevelCached
	}
	if lvl == LevelCached && depth <= s.cfg.DegradeLo {
		lvl = LevelFresh
	}
	if lvl != s.level {
		s.res.Transitions = append(s.res.Transitions, Transition{At: now, From: s.level, To: lvl, Depth: depth})
		s.level = lvl
	}
	return lvl
}

// queryName and workerName are static lazy-name formatters (SpawnLazyID), so
// these spawn sites capture nothing for the name.
func queryName(id int64) string  { return fmt.Sprintf("serve:q%d", id) }
func workerName(id int64) string { return fmt.Sprintf("serve:worker%d", id) }

// spawnWorkers starts the MPL executor processes draining the accept queue.
func (s *server) spawnWorkers() {
	for w := 0; w < s.cfg.MPL; w++ {
		s.sm.SpawnLazyID(workerName, int64(w), func(p *sim.Proc) {
			for {
				v, ok := s.queue.Get(p)
				if !ok {
					return
				}
				s.execute(p, v.(task))
			}
		})
	}
}

// execute plans (at the admitted degradation level) and runs one query — or
// dispatches the slot as a write when the update mix claims it.
func (s *server) execute(p *sim.Proc, t task) {
	if s.cfg.Updates != nil {
		if rel, pg0, n, ok := s.cfg.Updates(t.id); ok {
			s.executeUpdate(p, t, rel, pg0, n)
			return
		}
	}
	if len(s.streams) > 0 {
		s.streams[t.client].Queries++
	}
	bp := s.planFor(p, t)
	if s.budget != nil {
		s.budget.requests++
	}
	qr, err := s.ses.Execute(p, t.id, bp, exec.QueryOpts{Deadline: t.deadline, Client: t.client})
	s.res.Retries += qr.Retries
	s.res.AbortedWork += qr.AbortedWork
	s.res.BackoffTime += qr.BackoffTime
	switch {
	case err == nil:
		s.res.Completed++
		s.rts = append(s.rts, s.sm.Now()-t.arrival)
		if len(s.streams) > 0 {
			s.streams[t.client].Completed++
		}
	case isDeadline(err):
		s.res.Expired++
	default:
		s.res.Failed++
		if errors.Is(err, exec.ErrClientDown) {
			s.res.FailedClientDown++
			s.streams[t.client].FailedDown++
		}
	}
}

// executeUpdate runs one write slot through the coherence protocol. Updates
// skip planning (no optimizer work beyond the submission message) and have no
// deadline: their wait is bounded by the lease duration instead.
func (s *server) executeUpdate(p *sim.Proc, t task, rel string, pg0, n int) {
	s.res.Updates++
	s.streams[t.client].Updates++
	ur, err := s.ses.ExecuteUpdate(p, t.client, rel, pg0, n)
	s.res.UpdateWaitTime += ur.WaitTime
	s.res.Invalidations += int64(ur.Invalidations)
	if ur.BoundExpired {
		s.res.UpdatesBounded++
	}
	if err != nil {
		s.res.Failed++
		if errors.Is(err, exec.ErrClientDown) {
			s.res.FailedClientDown++
			s.streams[t.client].FailedDown++
		}
		return
	}
	s.res.UpdatesCommitted++
	s.res.Completed++
	s.streams[t.client].Completed++
	s.rts = append(s.rts, s.sm.Now()-t.arrival)
}

// planFor returns the plan the query runs, charging the client CPU for the
// planning work its degradation level implies.
func (s *server) planFor(p *sim.Proc, t task) *exec.BoundPlan {
	switch t.level {
	case LevelFresh:
		s.ses.ChargeClientCPU(p, s.cfg.OptInst)
		return s.freshB[t.class]
	case LevelCached:
		if s.cache.hit(t.class) {
			s.res.PlanCacheHits++
			s.ses.ChargeClientCPU(p, s.cfg.OptInst*PlanLookupFrac)
		} else {
			s.res.PlanCacheMisses++
			s.ses.ChargeClientCPU(p, s.cfg.OptInst)
			s.cache.insert(t.class)
		}
		return s.freshB[t.class]
	default:
		return s.staticB
	}
}

// finish derives the summary statistics once the simulation has drained.
func (s *server) finish() {
	if s.budget != nil {
		s.res.RetriesGranted = s.budget.granted
	}
	if s.cfg.Exec.Coherence != nil {
		sum := s.ses.Coherence().Summary()
		s.res.Coherence = sum
		for c := range s.streams {
			cs := sum.PerClient[c]
			s.streams[c].CacheHitPages = cs.CacheHitPages
			s.streams[c].CacheMissPages = cs.CacheMissPages
			s.streams[c].LeaseRenewals = cs.LeaseRenewals
			s.streams[c].CallbackMsgs = cs.CallbackMsgs
			s.streams[c].CallbackBytes = cs.CallbackBytes
		}
		s.res.Streams = s.streams
	}
	if s.brk != nil {
		for site := 0; site < s.ses.NumServers(); site++ {
			s.res.BreakerOpens += s.brk.Opened(site)
		}
	}
	if s.res.Elapsed > 0 {
		s.res.Goodput = float64(s.res.Completed) / s.res.Elapsed
	}
	if len(s.rts) == 0 {
		return
	}
	sort.Float64s(s.rts)
	var sum float64
	for _, rt := range s.rts {
		sum += rt
	}
	s.res.MeanRT = sum / float64(len(s.rts))
	s.res.P50RT = percentile(s.rts, 0.50)
	s.res.P99RT = percentile(s.rts, 0.99)
}

// percentile returns the q-quantile of sorted samples (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func isDeadline(err error) bool {
	return errors.Is(err, exec.ErrDeadlineExceeded)
}
