// Package exec is the simulated query execution engine (§3.2.1): a
// Volcano-style iterator engine whose operators run as processes inside the
// discrete-event simulator, charging CPU, disk, and network resources as
// they move real tuples.
//
// Query execution is demand driven with an open-next-close interface. When
// two connected operators are located on different sites, a pair of network
// operators is inserted between them; the producer side is its own process
// that tries to stay one page ahead of its consumer, yielding pipelined
// parallelism. Scans at the client read cached pages from the client disk
// and fault missing pages from the relation's home server one page at a
// time. All joins are hybrid hash joins (Shapiro) with either the minimum or
// the maximum memory allocation.
package exec

import (
	"fmt"
	"math/rand"

	"hybridship/internal/catalog"
	"hybridship/internal/coherence"
	"hybridship/internal/disk"
	"hybridship/internal/faults"
	"hybridship/internal/machine"
	"hybridship/internal/netsim"
	"hybridship/internal/query"
	"hybridship/internal/seedmix"
	"hybridship/internal/sim"
)

// Params is the simulator configuration: Table 2 of the paper, shared with
// the cost model, plus the engine's own settings.
type Params struct {
	machine.Params

	// LookaheadPages is how far a network producer may run ahead of its
	// consumer (default 1: "each producer has a process that tries to stay
	// one page ahead", §3.2.1). Exposed for the pipelining ablation.
	LookaheadPages int

	Disk disk.Params // physical disk model
}

// DefaultParams returns Table 2's default settings.
func DefaultParams() Params {
	return Params{Params: machine.DefaultParams(), Disk: disk.DefaultParams()}
}

// lookahead returns the network producer lookahead, defaulting to one page.
func (p Params) lookahead() int {
	if p.LookaheadPages <= 0 {
		return 1
	}
	return p.LookaheadPages
}

// Config describes one query execution: the machine park, the data, and the
// external load.
type Config struct {
	Params  Params
	Catalog *catalog.Catalog
	Query   *query.Query

	// Next gives the value of a relation's join attribute for the tuple with
	// the given row id: the predicate Ri.next = Rj.id matches when
	// Next(Ri, id_i) == id_j. See the workload package for the generators.
	Next func(rel string, id int64) int64

	// Pass evaluates the selection predicate on a base relation's tuple
	// (nil means every tuple passes).
	Pass func(rel string, id int64) bool

	// ServerLoad adds an external process issuing random disk reads at the
	// given rate (requests/second) on each listed server (§3.2.2). A key
	// that names no server of the catalog is an error.
	ServerLoad map[catalog.SiteID]float64

	// Seed drives the external load arrival process.
	Seed int64

	// Faults, when enabled, injects deterministic failures (site crashes,
	// network outages/degradation, disk stalls). Every query runs as
	// supervised attempts either way, under the recovery settings of this
	// config (fetch timeout, retry cap, backoff); nil means the defaults,
	// with the backoff jitter seeded from Seed. A nil or disabled config
	// spawns no injector daemons.
	Faults *faults.Config

	// Coherence configures the client caches, which every run reads through
	// the lease/callback protocol of internal/coherence (DESIGN.md §15). Nil
	// means one client with infinite leases (coherence.Config{NumClients:
	// 1}): the paper's static, preloaded client cache. Setting it also
	// enables the update path, the client fault hooks, and the coherence
	// counters in Result.
	Coherence *coherence.Config

	// Trace, when set, receives every kernel dispatch (virtual time plus the
	// dispatched process name). Setting it also disables the simulator's
	// in-place Hold fast path, forcing the reference park/dispatch protocol —
	// the hook the determinism regression tests use to prove the fast path
	// leaves the event schedule unchanged.
	Trace func(sim.Time, string)

	// Kernel, when non-nil, is the simulator this engine builds its sites,
	// disks, and network on instead of a fresh one — the hook a fleet driver
	// uses to place several engines on the shards of a shard.Coordinator.
	// The owner of a shared kernel drives it (the engine's Session.Run must
	// not be used then) and a sharded kernel rejects Trace, which forces the
	// sequential reference kernel exactly as the fast-path tracing does.
	Kernel *sim.Simulator
}

// Result reports one simulated query execution.
type Result struct {
	ResponseTime float64 // seconds until the last tuple is displayed
	PagesSent    int64   // data pages transferred over the network
	Messages     int64   // total network messages
	ResultTuples int64   // cardinality of the displayed result
	DiskStats    map[catalog.SiteID]disk.Stats
	NetStats     netsim.Stats

	// Failure-awareness counters; all zero unless an attempt aborted.
	Retries          int64        // aborted or unrunnable rounds before completion
	AbortedWork      float64      // virtual seconds of attempts that were aborted
	BackoffTime      float64      // virtual seconds spent waiting between attempts
	ReplicaFailovers int64        // scans served by a replica other than the one the plan chose
	BackoffSkips     int64        // backoff waits skipped because re-binding found a live plan
	FaultStats       faults.Stats // what the injector actually did

	// Coherence holds the cache-coherence counters (lease renewals,
	// invalidations, write protocol, staleness oracle); nil unless
	// Config.Coherence was set.
	Coherence *coherence.Summary
}

// diskAddr locates one page on one of a site's disks.
type diskAddr struct {
	dsk  int
	page disk.PageAddr
}

// plus returns the address n pages further into the same extent.
func (a diskAddr) plus(n int) diskAddr {
	return diskAddr{dsk: a.dsk, page: a.page + disk.PageAddr(n)}
}

// site is one simulated machine.
type site struct {
	id    catalog.SiteID
	cpu   *sim.Resource
	disks []*disk.Disk
	up    bool // flipped by the fault injector's crash/restart hooks

	// warmUntil is the virtual time until which a restarted site is still
	// warming its controller cache (faults.Config.WarmupDelay); re-binding
	// deprioritizes — but never excludes — warming copies (DESIGN.md §14).
	warmUntil float64

	// Disk layout: extents assigned to relations (servers, extents) or
	// cached relation prefixes (client, engine.cohExt) are spread over the
	// site's disks round robin; each disk's remaining space is its temporary
	// region for join partitions, with temp chunks also allocated round
	// robin so concurrent partition streams exploit all arms.
	extents  []diskAddr      // by RelID−1: extent start; zero where the site holds none
	tempNext []disk.PageAddr // per-disk temp bump pointer
	tempRR   int             // round-robin cursor for temp chunks

	pager *pageServer // server-side page-fault handler
}

func (s *site) read(p *sim.Proc, a diskAddr)  { s.disks[a.dsk].Read(p, a.page) }
func (s *site) write(p *sim.Proc, a diskAddr) { s.disks[a.dsk].Write(p, a.page) }

// writeRun moves n contiguous pages as one scatter-gather request.
func (s *site) writeRun(p *sim.Proc, a diskAddr, n int) { s.disks[a.dsk].WriteRun(p, a.page, n) }

func (s *site) chargeCPU(p *sim.Proc, params Params, instr float64) {
	if instr <= 0 {
		return
	}
	s.cpu.Use(p, params.CPUTime(instr))
}

// allocTemp reserves n contiguous pages in a temp region, rotating across
// the site's disks per chunk.
func (s *site) allocTemp(n int) diskAddr {
	d := s.tempRR % len(s.disks)
	s.tempRR++
	a := diskAddr{dsk: d, page: s.tempNext[d]}
	s.tempNext[d] += disk.PageAddr(n)
	if s.tempNext[d] > s.disks[d].Params().Capacity() {
		panic(fmt.Sprintf("exec: site %d disk %d temp region exhausted", s.id, d))
	}
	return a
}

// aggregateStats sums the counters of all the site's disks.
func (s *site) aggregateStats() disk.Stats {
	var out disk.Stats
	for _, d := range s.disks {
		st := d.Stats()
		out.Reads += st.Reads
		out.Writes += st.Writes
		out.CacheHits += st.CacheHits
		out.Destages += st.Destages
		out.DestageOps += st.DestageOps
		out.BusyTime += st.BusyTime
		out.SeekTime += st.SeekTime
		out.RotTime += st.RotTime
		out.XferTime += st.XferTime
	}
	return out
}

// engine wires one simulation run together.
type engine struct {
	cfg     Config
	sim     *sim.Simulator
	net     *netsim.Network
	client  *site
	servers []*site

	// Failure awareness: ftl holds the recovery settings every query runs
	// under; inj is nil unless Config.Faults enables injection.
	ftl      failoverParams
	inj      *faults.Injector
	attempts []*attemptState // in-flight attempts, consulted by crash hooks and the fetch watchdog
	watch    fetchWatch      // the one watchdog over every outstanding page-fault fetch (failover.go)
	rb       rebindState     // reused per-attempt re-binding scratch (failover.go)

	// Client caches (coherence.go). cohExt[ri][c] is client c's cache
	// extent for the cacheable prefix of the relation with RelID ri+1 (nil
	// when none is cached), on the client site's disks.
	coh    *coherence.State
	cohExt [][]diskAddr

	// Serving-layer hooks, set only by NewSession; nil in the closed runs
	// (runClosed), which have no breakers or retry budget.
	siteGate  SiteGate
	retryGate RetryGate

	// pool recycles the columnar batches and join hash tables across
	// operators and queries. It is a plain free list: the kernel runs one
	// process at a time, so no locking, and recycling never touches the
	// event schedule. A serving session starts from the pool a released
	// session handed on (NewSession, Release); a closed run's pool is
	// private and dies with its run.
	pool batchPool
}

func (e *engine) site(id catalog.SiteID) *site {
	if id == catalog.Client {
		return e.client
	}
	return e.servers[int(id)]
}

// validate checks what every entry point needs of cfg before it binds a
// plan or builds an engine.
func (cfg *Config) validate() error {
	if cfg.Catalog == nil || cfg.Query == nil {
		return fmt.Errorf("exec: config needs catalog and query")
	}
	if cfg.Next == nil {
		return fmt.Errorf("exec: config needs a Next join-attribute function")
	}
	if err := cfg.Query.Validate(); err != nil {
		return err
	}
	if cfg.Params.NumDisks < 1 {
		return fmt.Errorf("exec: NumDisks must be at least 1")
	}
	return cfg.Catalog.CheckServerLoad(cfg.ServerLoad)
}

// newEngine builds the simulated machine park for cfg, which must have
// passed validate.
func newEngine(cfg Config) (*engine, error) {
	e := &engine{cfg: cfg, sim: cfg.Kernel}
	e.watch.check = e.checkFetches
	if e.sim == nil {
		e.sim = sim.New()
	}
	if cfg.Trace != nil {
		e.sim.Trace = cfg.Trace
	}
	e.net = netsim.New(e.sim, cfg.Params.NetBw)
	rels := cfg.Catalog.Relations()
	cc := coherence.Config{NumClients: 1}
	if cfg.Coherence != nil {
		cc = *cfg.Coherence
	}
	st, err := coherence.NewState(cc, cfg.Catalog)
	if err != nil {
		return nil, err
	}
	e.coh = st
	e.cohExt = make([][]diskAddr, len(rels))

	newSite := func(id catalog.SiteID, name string) *site {
		s := &site{
			id:      id,
			cpu:     sim.NewResource(e.sim, "cpu:"+name),
			extents: make([]diskAddr, len(rels)),
			up:      true,
		}
		for d := 0; d < cfg.Params.NumDisks; d++ {
			s.disks = append(s.disks, disk.New(e.sim, fmt.Sprintf("%s/%d", name, d), cfg.Params.Disk))
		}
		s.tempNext = make([]disk.PageAddr, cfg.Params.NumDisks)
		return s
	}
	e.client = newSite(catalog.Client, "client")
	for i := 0; i < cfg.Catalog.NumServers; i++ {
		e.servers = append(e.servers, newSite(catalog.SiteID(i), fmt.Sprintf("server%d", i)))
	}

	// Lay out primary copies on server disks and cached prefixes on the
	// client disk, rotating relations across each site's disks; every
	// disk's remaining space is temporary storage (the client reserves
	// separate regions for cache and temp, §3.2.1).
	place := func(s *site, pages int) diskAddr {
		d := 0
		for i := range s.disks {
			if s.tempNext[i] < s.tempNext[d] {
				d = i
			}
		}
		a := diskAddr{dsk: d, page: s.tempNext[d]}
		s.tempNext[d] += disk.PageAddr(pages)
		return a
	}
	for ri, name := range rels {
		rel := cfg.Catalog.MustRelation(name)
		for c := 0; c < rel.NumCopies(); c++ {
			s := e.site(rel.CopySite(c))
			s.extents[ri] = place(s, rel.Pages(cfg.Params.PageSize))
		}
		if cp := cfg.Catalog.CachedPages(name); cp > 0 {
			// Each client stream caches the prefix in its own extent.
			ext := make([]diskAddr, e.coh.NumClients())
			for c := range ext {
				ext[c] = place(e.client, cp)
			}
			e.cohExt[ri] = ext
		}
	}
	for _, s := range e.servers {
		s.pager = newPageServer(e, s)
	}

	// External server load (§3.2.2): an extra process issues random disk
	// reads at a configurable rate. The load clocks start in site-ID order,
	// so the seqs they take do not depend on map iteration.
	for _, s := range e.servers {
		if rate := cfg.ServerLoad[s.id]; rate > 0 {
			e.spawnLoad(s, rate)
		}
	}

	// Every query runs supervised; without a fault config the recovery
	// settings take their defaults, seeded from the run seed.
	fc := cfg.Faults
	if fc == nil {
		fc = &faults.Config{Seed: cfg.Seed}
	}
	e.ftl = newFailoverParams(fc)

	// Fault injection (opt-in): wire the injector's hooks to the simulated
	// hardware and spawn its daemons.
	if fc.Enabled() {
		hooks := faults.Hooks{Sites: make([]faults.SiteHooks, len(e.servers))}
		for i, s := range e.servers {
			dh := make([]faults.DiskHooks, len(s.disks))
			for j, d := range s.disks {
				d := d
				dh[j] = faults.DiskHooks{
					Stall:  func() { d.SetStalled(true) },
					Resume: func() { d.SetStalled(false) },
				}
			}
			i, s := i, s
			hooks.Sites[i] = faults.SiteHooks{
				Crash: func() { e.crashServer(i) },
				Restart: func() {
					// The site is reachable again immediately, but its
					// controller cache is cold (disk.CrashRestart) and its
					// copies stay deprioritized until the warm-up elapses.
					s.up = true
					s.warmUntil = e.sim.Now() + e.ftl.warmup
					// New incarnation: clients discard on next contact,
					// writes hold for one lease duration (write grace).
					e.coh.RestartServer(i, e.sim.Now())
				},
				Disks: dh,
			}
		}
		hooks.NetDown = func() { e.net.SetDown(true) }
		hooks.NetUp = func() { e.net.SetDown(false) }
		hooks.NetDegrade = func(f float64) { e.net.SetDegrade(f) }
		if cfg.Coherence != nil {
			// Only a configured fleet has client workstations to crash;
			// without one, client faults stay inert (faults.Config).
			hooks.Clients = make([]faults.ClientHooks, e.coh.NumClients())
			for c := range hooks.Clients {
				c := c
				hooks.Clients[c] = faults.ClientHooks{
					Crash:   func() { e.crashClient(c) },
					Restart: func() { e.coh.RestartClient(c) },
				}
			}
		}
		e.inj = faults.New(e.sim, *fc, hooks)
	}
	return e, nil
}

// spawnLoad starts an open-loop Poisson arrival stream of random single-page
// reads against the site's disk, on a clock: next draws the gap to arrival
// i, fire draws its target and spawns it.
func (e *engine) spawnLoad(s *site, reqPerSec float64) {
	capacity := int64(s.disks[0].Params().Capacity())
	rng := rand.New(rand.NewSource(loadSeed(e.cfg.Seed, s.id)))
	i := 0
	e.sim.SpawnClock(func() string { return fmt.Sprintf("load:site%d", s.id) }, false,
		func() (sim.Time, bool) { return rng.ExpFloat64() / reqPerSec, true },
		func() {
			target := diskAddr{dsk: rng.Intn(len(s.disks)), page: disk.PageAddr(rng.Int63n(capacity))}
			if s.up { // a crashed server takes no external load; draws stay aligned
				e.spawnArrival(s, i, target)
			}
			i++
		})
}

// spawnArrival runs external-load arrival i as its own process, so that a
// slow disk queues arrivals instead of throttling them (open-loop load). An
// arrival is a process, not a task, because it charges the CPU and reads the
// disk. The kernel pools the coroutines of finished arrivals, and the name is
// only built if a trace asks for it.
func (e *engine) spawnArrival(s *site, i int, target diskAddr) {
	e.sim.SpawnDaemonLazy(func() string { return fmt.Sprintf("load:site%d/%d", s.id, i) }, func(q *sim.Proc) {
		s.chargeCPU(q, e.cfg.Params, e.cfg.Params.DiskInst)
		s.read(q, target)
	})
}

// loadSeed derives the per-site load-RNG stream from the run seed through
// the repo-wide splitmix64 mixer, replacing the former ad-hoc
// seed^(site+1)*7919 formula whose neighboring sites produced correlated
// low bits. seedLoadGen tags the stream so other engine-level consumers of
// Derive can never collide with it.
func loadSeed(seed int64, site catalog.SiteID) int64 {
	return seedmix.Derive(seed, seedLoadGen, int64(site))
}

// seedLoadGen is the stream tag of the external-load arrival processes.
const seedLoadGen int64 = 101
