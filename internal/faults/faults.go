// Package faults is the deterministic fault-injection subsystem: it
// schedules site crashes and restarts, network outages and bandwidth
// degradation, and per-disk I/O stalls as first-class events inside the
// discrete-event simulator. The paper's simulator models load but never
// failure (§3.2); this package supplies the failure side so the execution
// engine's recovery policy — abort, back off, re-bind the plan against the
// surviving sites — can be exercised and measured.
//
// Everything is virtual-time and seed-driven: fault times are drawn from
// exponential MTBF/MTTR distributions whose per-stream RNGs are derived
// through internal/seedmix, so a run with the same seed and fault
// configuration produces bit-identical fault schedules (and therefore
// bit-identical Results) regardless of GOMAXPROCS or wall-clock timing.
// Injection is strictly additive: with a nil or disabled Config no daemon is
// spawned and the kernel's 0-alloc uncontended Hold fast path is untouched.
package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"hybridship/internal/seedmix"
	"hybridship/internal/sim"
)

// Config describes the fault environment of one simulation run. The zero
// value injects nothing. All MTBF/MTTR values are mean seconds of virtual
// time for exponentially distributed intervals; a zero MTBF disables that
// fault class.
type Config struct {
	// Seed drives every fault stream (per-class, per-site, per-disk RNGs are
	// derived from it through seedmix.Derive).
	Seed int64

	// SiteMTBF/SiteMTTR: whole-server crash/restart cycles, independently
	// per server site. A crash loses the server's volatile state (disk
	// controller caches) and aborts the queries depending on it.
	SiteMTBF float64
	SiteMTTR float64

	// NetMTBF/NetMTTR: full interconnect outages. New transmissions block
	// until the link comes back up.
	NetMTBF float64
	NetMTTR float64

	// DegradeMTBF/DegradeMTTR: episodes during which transfer times are
	// multiplied by DegradeFactor (> 1; 0 defaults to 4, i.e. quarter
	// bandwidth).
	DegradeMTBF   float64
	DegradeMTTR   float64
	DegradeFactor float64

	// DiskMTBF/DiskMTTR: per-disk I/O stalls, independently per disk of
	// every server site. A stalled disk finishes nothing until it resumes.
	DiskMTBF float64
	DiskMTTR float64

	// ClientMTBF/ClientMTTR: client workstation crash/restart cycles,
	// independently per client stream of a coherent serve fleet. A crashed
	// client loses its cache and lease state; on restart it comes back with a
	// new cache epoch and must refetch everything (DESIGN.md §15). These
	// streams only exist when the engine registers client hooks — without a
	// configured client fleet there is nothing to crash and the class is
	// inert even when the MTBF is set.
	ClientMTBF float64
	ClientMTTR float64

	// FetchTimeout bounds one synchronous page-fault-shipping round trip; a
	// fetch outstanding longer than this aborts the attempt (the requester
	// cannot tell a dead server from a slow one). 0 defaults to 1s. Like the
	// retry and backoff settings below, it applies whether or not the
	// config injects anything: the engine supervises every query.
	FetchTimeout float64

	// MaxRetries bounds how many times a query is retried (re-bound and
	// re-run) before it fails permanently. 0 defaults to 25.
	MaxRetries int

	// BackoffBase/BackoffMax shape the exponential retry backoff: attempt k
	// waits about BackoffBase·2^k (capped at BackoffMax), jittered ±50% from
	// the query's derived RNG. Defaults: 0.25s base, 4s cap.
	BackoffBase float64
	BackoffMax  float64

	// WarmupDelay is how long (virtual seconds) a restarted site's copies are
	// deprioritized during replica selection after the restart: its disk
	// controller caches come back cold, so re-binding to a warm replica first
	// is usually cheaper (DESIGN.md §14). Warming sites remain bindable — they
	// are only passed over when a warm copy is also up. 0 (the default)
	// disables the rule, preserving legacy behaviour.
	WarmupDelay float64

	// Script lists explicit, fully specified fault events, applied in
	// addition to (typically instead of) the stochastic streams. Tests use
	// it to place a crash at an exact virtual time.
	Script []Event
}

// EventKind identifies a scripted fault class.
type EventKind int

const (
	// SiteCrash crashes server Site at At and restarts it Duration later
	// (Duration <= 0: the site stays down for the rest of the run).
	SiteCrash EventKind = iota
	// NetOutage takes the interconnect down at At for Duration.
	NetOutage
	// NetDegrade multiplies transfer times by Factor from At for Duration.
	NetDegrade
	// DiskStall stalls disk Disk of server Site at At for Duration.
	DiskStall
	// ClientCrash crashes client workstation Site (the field doubles as the
	// client index) at At and restarts it Duration later (Duration <= 0: the
	// client stays down). Ignored when no client hooks are registered.
	ClientCrash
)

// Event is one scripted fault.
type Event struct {
	At       float64 // virtual time the fault begins
	Kind     EventKind
	Site     int     // server index (SiteCrash, DiskStall) or client index (ClientCrash)
	Disk     int     // disk index within the site (DiskStall)
	Duration float64 // time until recovery; <= 0 means never (SiteCrash only)
	Factor   float64 // degrade multiplier (NetDegrade)
}

// Enabled reports whether this configuration injects anything at all.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return c.SiteMTBF > 0 || c.NetMTBF > 0 || c.DegradeMTBF > 0 ||
		c.DiskMTBF > 0 || c.ClientMTBF > 0 || len(c.Script) > 0
}

// Defaulted accessors (the raw fields stay comparable / zero-value friendly).

func (c *Config) FetchTimeoutOrDefault() float64 {
	if c.FetchTimeout > 0 {
		return c.FetchTimeout
	}
	return 1.0
}

func (c *Config) MaxRetriesOrDefault() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 25
}

func (c *Config) BackoffBaseOrDefault() float64 {
	if c.BackoffBase > 0 {
		return c.BackoffBase
	}
	return 0.25
}

func (c *Config) BackoffMaxOrDefault() float64 {
	if c.BackoffMax > 0 {
		return c.BackoffMax
	}
	return 4.0
}

func (c *Config) degradeFactor() float64 {
	if c.DegradeFactor > 1 {
		return c.DegradeFactor
	}
	return 4.0
}

// Hooks are the callbacks through which the injector drives the simulated
// hardware. The execution engine fills them in: Crash flips the site down and
// aborts dependent query attempts, Restart flips it back up, and so on. All
// hooks run on the injector's daemon processes at the fault's virtual time.
type Hooks struct {
	Sites      []SiteHooks
	Clients    []ClientHooks
	NetDown    func()
	NetUp      func()
	NetDegrade func(factor float64) // called with 1 to restore
}

// ClientHooks are one client workstation's fault callbacks. The engine
// registers them only for a configured client fleet (exec.Config.Coherence);
// a run on the default one-client cache registers none.
type ClientHooks struct {
	Crash   func()
	Restart func()
}

// SiteHooks are one server site's fault callbacks.
type SiteHooks struct {
	Crash   func()
	Restart func()
	Disks   []DiskHooks
}

// DiskHooks are one disk's fault callbacks.
type DiskHooks struct {
	Stall  func()
	Resume func()
}

// Stats counts what the injector actually did, plus the accumulated
// downtime per fault class. Downtime still open when the simulation ends is
// not included (the run is over; nobody observed the recovery). All fields
// are plain values so Stats is reflect.DeepEqual-friendly inside Results.
type Stats struct {
	SiteCrashes    int64
	SiteDownTime   float64
	NetOutages     int64
	NetDownTime    float64
	NetDegrades    int64
	DegradedTime   float64
	DiskStalls     int64
	DiskStallTime  float64
	ClientCrashes  int64
	ClientDownTime float64
}

// Stream tags for seedmix.Derive: the per-class coordinate keeps every fault
// stream decorrelated from the others and from the engine's load streams.
const (
	seedSite    int64 = 1
	seedNet     int64 = 2
	seedDegrade int64 = 3
	seedDisk    int64 = 4
	seedClient  int64 = 5
)

// Injector owns the fault state of one simulation. Create it with New after
// the simulated hardware exists; it spawns its daemons immediately.
type Injector struct {
	sim   *sim.Simulator
	cfg   Config
	hooks Hooks
	stats Stats

	siteDown     []bool
	siteDownAt   []float64
	clientDown   []bool
	clientDownAt []float64
	netDown      bool
	netDownAt    float64
	degraded     bool
	degradedAt   float64
	diskDown     [][]bool
	diskDownAt   [][]float64
}

// New builds the injector for a simulation. It spawns one daemon per stochastic fault stream (site,
// disk, network, degradation) plus one for the script; each daemon draws
// from its own seedmix-derived RNG, so streams never perturb one another.
func New(s *sim.Simulator, cfg Config, hooks Hooks) *Injector {
	in := &Injector{sim: s, cfg: cfg, hooks: hooks}
	in.siteDown = make([]bool, len(hooks.Sites))
	in.siteDownAt = make([]float64, len(hooks.Sites))
	in.diskDown = make([][]bool, len(hooks.Sites))
	in.diskDownAt = make([][]float64, len(hooks.Sites))
	for i, sh := range hooks.Sites {
		in.diskDown[i] = make([]bool, len(sh.Disks))
		in.diskDownAt[i] = make([]float64, len(sh.Disks))
	}
	in.clientDown = make([]bool, len(hooks.Clients))
	in.clientDownAt = make([]float64, len(hooks.Clients))

	if cfg.SiteMTBF > 0 {
		for i := range hooks.Sites {
			in.spawnCycle(seedSite, int64(i), cfg.SiteMTBF, cfg.SiteMTTR,
				func() { in.crashSite(i) }, func() { in.restartSite(i) })
		}
	}
	if cfg.DiskMTBF > 0 {
		for i, sh := range hooks.Sites {
			for j := range sh.Disks {
				in.spawnCycle(seedDisk, int64(i)*1000+int64(j), cfg.DiskMTBF, cfg.DiskMTTR,
					func() { in.stallDisk(i, j) }, func() { in.resumeDisk(i, j) })
			}
		}
	}
	if cfg.ClientMTBF > 0 {
		for i := range hooks.Clients {
			in.spawnCycle(seedClient, int64(i), cfg.ClientMTBF, cfg.ClientMTTR,
				func() { in.crashClient(i) }, func() { in.restartClient(i) })
		}
	}
	if cfg.NetMTBF > 0 {
		in.spawnCycle(seedNet, 0, cfg.NetMTBF, cfg.NetMTTR,
			in.netOutage, in.netRestore)
	}
	if cfg.DegradeMTBF > 0 {
		f := cfg.degradeFactor()
		in.spawnCycle(seedDegrade, 0, cfg.DegradeMTBF, cfg.DegradeMTTR,
			func() { in.netDegrade(f) }, in.netRestoreDegrade)
	}
	if len(cfg.Script) > 0 {
		in.spawnScript()
	}
	return in
}

// Stats returns a copy of the injection counters.
func (in *Injector) Stats() Stats { return in.stats }

// SiteDown reports whether server site i is currently crashed.
func (in *Injector) SiteDown(i int) bool { return in.siteDown[i] }

// spawnCycle runs an alternating up/down renewal process: hold ~Exp(mtbf),
// fail, hold ~Exp(mttr), recover, repeat. A zero mttr recovers immediately
// (Hold(0) still yields, so the failure and recovery are distinct events).
func (in *Injector) spawnCycle(class, idx int64, mtbf, mttr float64, fail, restore func()) {
	rng := rand.New(rand.NewSource(seedmix.Derive(in.cfg.Seed, class, idx)))
	in.sim.SpawnDaemonLazy(func() string { return fmt.Sprintf("fault:%d/%d", class, idx) }, func(p *sim.Proc) {
		for {
			p.Hold(rng.ExpFloat64() * mtbf)
			fail()
			p.Hold(rng.ExpFloat64() * mttr)
			restore()
		}
	})
}

// spawnScript replays the explicit events in time order. Each event's
// recovery runs on its own one-shot daemon so scripted faults may overlap.
func (in *Injector) spawnScript() {
	script := append([]Event(nil), in.cfg.Script...)
	sort.SliceStable(script, func(i, j int) bool { return script[i].At < script[j].At })
	in.sim.SpawnDaemonLazy(func() string { return "fault:script" }, func(p *sim.Proc) {
		for _, ev := range script {
			if dt := ev.At - in.sim.Now(); dt > 0 {
				p.Hold(dt)
			}
			in.apply(ev)
		}
	})
}

func (in *Injector) apply(ev Event) {
	switch ev.Kind {
	case SiteCrash:
		i := ev.Site
		in.crashSite(i)
		in.after(ev.Duration, func() { in.restartSite(i) })
	case NetOutage:
		in.netOutage()
		in.after(ev.Duration, in.netRestore)
	case NetDegrade:
		f := ev.Factor
		if f <= 1 {
			f = in.cfg.degradeFactor()
		}
		in.netDegrade(f)
		in.after(ev.Duration, in.netRestoreDegrade)
	case DiskStall:
		i, j := ev.Site, ev.Disk
		in.stallDisk(i, j)
		in.after(ev.Duration, func() { in.resumeDisk(i, j) })
	case ClientCrash:
		i := ev.Site
		if i < 0 || i >= len(in.clientDown) {
			return // no such client stream registered; scripted no-op
		}
		in.crashClient(i)
		in.after(ev.Duration, func() { in.restartClient(i) })
	default:
		panic(fmt.Sprintf("faults: unknown scripted event kind %d", ev.Kind))
	}
}

// after schedules recover() dt from now on a one-shot daemon; dt <= 0 means
// the fault is permanent.
func (in *Injector) after(dt float64, recover func()) {
	if dt <= 0 {
		return
	}
	in.sim.SpawnDaemonLazy(func() string { return "fault:recover" }, func(p *sim.Proc) {
		p.Hold(dt)
		recover()
	})
}

// The state transitions are idempotent (a scripted crash overlapping a
// stochastic one, or a recovery arriving after a newer failure of the same
// element, must not double-count or double-fire hooks).

func (in *Injector) crashSite(i int) {
	if in.siteDown[i] {
		return
	}
	in.siteDown[i] = true
	in.siteDownAt[i] = in.sim.Now()
	in.stats.SiteCrashes++
	if h := in.hooks.Sites[i].Crash; h != nil {
		h()
	}
}

func (in *Injector) restartSite(i int) {
	if !in.siteDown[i] {
		return
	}
	in.siteDown[i] = false
	in.stats.SiteDownTime += in.sim.Now() - in.siteDownAt[i]
	if h := in.hooks.Sites[i].Restart; h != nil {
		h()
	}
}

func (in *Injector) crashClient(i int) {
	if in.clientDown[i] {
		return
	}
	in.clientDown[i] = true
	in.clientDownAt[i] = in.sim.Now()
	in.stats.ClientCrashes++
	if h := in.hooks.Clients[i].Crash; h != nil {
		h()
	}
}

func (in *Injector) restartClient(i int) {
	if !in.clientDown[i] {
		return
	}
	in.clientDown[i] = false
	in.stats.ClientDownTime += in.sim.Now() - in.clientDownAt[i]
	if h := in.hooks.Clients[i].Restart; h != nil {
		h()
	}
}

func (in *Injector) netOutage() {
	if in.netDown {
		return
	}
	in.netDown = true
	in.netDownAt = in.sim.Now()
	in.stats.NetOutages++
	if in.hooks.NetDown != nil {
		in.hooks.NetDown()
	}
}

func (in *Injector) netRestore() {
	if !in.netDown {
		return
	}
	in.netDown = false
	in.stats.NetDownTime += in.sim.Now() - in.netDownAt
	if in.hooks.NetUp != nil {
		in.hooks.NetUp()
	}
}

func (in *Injector) netDegrade(factor float64) {
	if in.degraded {
		return
	}
	in.degraded = true
	in.degradedAt = in.sim.Now()
	in.stats.NetDegrades++
	if in.hooks.NetDegrade != nil {
		in.hooks.NetDegrade(factor)
	}
}

func (in *Injector) netRestoreDegrade() {
	if !in.degraded {
		return
	}
	in.degraded = false
	in.stats.DegradedTime += in.sim.Now() - in.degradedAt
	if in.hooks.NetDegrade != nil {
		in.hooks.NetDegrade(1)
	}
}

func (in *Injector) stallDisk(i, j int) {
	if in.diskDown[i][j] {
		return
	}
	in.diskDown[i][j] = true
	in.diskDownAt[i][j] = in.sim.Now()
	in.stats.DiskStalls++
	if h := in.hooks.Sites[i].Disks[j].Stall; h != nil {
		h()
	}
}

func (in *Injector) resumeDisk(i, j int) {
	if !in.diskDown[i][j] {
		return
	}
	in.diskDown[i][j] = false
	in.stats.DiskStallTime += in.sim.Now() - in.diskDownAt[i][j]
	if h := in.hooks.Sites[i].Disks[j].Resume; h != nil {
		h()
	}
}
