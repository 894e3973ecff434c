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
// Injection is strictly additive: with a nil or disabled Config no clock is
// started and the kernel's 0-alloc uncontended Hold fast path is untouched.
// Every fault actor only holds and then calls a hook, so each one is a
// kernel clock (sim.SpawnClock), not a process.
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
// fault class. A zero MTTR recovers within the failure's own dispatch: a
// zero delay on a fault clock fires without a hold.
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
// hooks run on the injector's clocks, on the kernel goroutine, at the fault's
// virtual time; they must not park.
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
// the simulated hardware exists; it starts its clocks immediately.
type Injector struct {
	sim   *sim.Simulator
	cfg   Config
	hooks Hooks
	stats Stats

	sites, clients []element
	disks          [][]element
	net, degrade   element
}

// element is the state of one piece of hardware that fails and recovers: a
// server site, a client workstation, a disk, the interconnect, or its
// bandwidth. failures and downtime point at its class's Stats fields.
type element struct {
	down      bool
	downSince float64
	failures  *int64
	downtime  *float64
}

// New builds the injector for a simulation. It starts one clock per
// stochastic fault stream (site, disk, client, network, degradation) plus
// one for the script; each stream draws from its own seedmix-derived RNG,
// so streams never perturb one another.
func New(s *sim.Simulator, cfg Config, hooks Hooks) *Injector {
	in := &Injector{sim: s, cfg: cfg, hooks: hooks}
	st := &in.stats
	in.net = element{failures: &st.NetOutages, downtime: &st.NetDownTime}
	in.degrade = element{failures: &st.NetDegrades, downtime: &st.DegradedTime}
	in.sites = make([]element, len(hooks.Sites))
	in.disks = make([][]element, len(hooks.Sites))
	for i, sh := range hooks.Sites {
		in.sites[i] = element{failures: &st.SiteCrashes, downtime: &st.SiteDownTime}
		in.disks[i] = make([]element, len(sh.Disks))
		for j := range sh.Disks {
			in.disks[i][j] = element{failures: &st.DiskStalls, downtime: &st.DiskStallTime}
		}
	}
	in.clients = make([]element, len(hooks.Clients))
	for i := range in.clients {
		in.clients[i] = element{failures: &st.ClientCrashes, downtime: &st.ClientDownTime}
	}

	if cfg.SiteMTBF > 0 {
		for i, h := range hooks.Sites {
			in.spawnCycle(seedSite, int64(i), cfg.SiteMTBF, cfg.SiteMTTR, &in.sites[i], h.Crash, h.Restart)
		}
	}
	if cfg.DiskMTBF > 0 {
		for i, sh := range hooks.Sites {
			for j, h := range sh.Disks {
				in.spawnCycle(seedDisk, int64(i)*1000+int64(j), cfg.DiskMTBF, cfg.DiskMTTR,
					&in.disks[i][j], h.Stall, h.Resume)
			}
		}
	}
	if cfg.ClientMTBF > 0 {
		for i, h := range hooks.Clients {
			in.spawnCycle(seedClient, int64(i), cfg.ClientMTBF, cfg.ClientMTTR, &in.clients[i], h.Crash, h.Restart)
		}
	}
	if cfg.NetMTBF > 0 {
		in.spawnCycle(seedNet, 0, cfg.NetMTBF, cfg.NetMTTR, &in.net, hooks.NetDown, hooks.NetUp)
	}
	if cfg.DegradeMTBF > 0 {
		in.spawnCycle(seedDegrade, 0, cfg.DegradeMTBF, cfg.DegradeMTTR, &in.degrade,
			in.degradeHook(cfg.degradeFactor()), in.degradeHook(1))
	}
	if len(cfg.Script) > 0 {
		in.spawnScript()
	}
	return in
}

// Stats returns a copy of the injection counters.
func (in *Injector) Stats() Stats { return in.stats }

// SiteDown reports whether server site i is currently crashed.
func (in *Injector) SiteDown(i int) bool { return in.sites[i].down }

// spawnCycle runs an alternating up/down renewal stream of e on a clock:
// hold ~Exp(mtbf), fail, hold ~Exp(mttr), restore, repeat.
func (in *Injector) spawnCycle(class, idx int64, mtbf, mttr float64, e *element, fail, restore func()) {
	rng := rand.New(rand.NewSource(seedmix.Derive(in.cfg.Seed, class, idx)))
	mean, phase := [2]float64{mtbf, mttr}, 0 // phase 0: the next firing fails e
	in.sim.SpawnClock(func() string { return fmt.Sprintf("fault:%d/%d", class, idx) }, false,
		func() (float64, bool) { return rng.ExpFloat64() * mean[phase], true },
		func() {
			if phase == 0 {
				in.fail(e, fail)
			} else {
				in.restore(e, restore)
			}
			phase ^= 1
		})
}

// spawnScript replays the explicit events in time order on one clock, which
// applies every event due at an instant in one firing. Each event's recovery
// runs on its own one-shot clock so scripted faults may overlap.
func (in *Injector) spawnScript() {
	script := append([]Event(nil), in.cfg.Script...)
	sort.SliceStable(script, func(i, j int) bool { return script[i].At < script[j].At })
	i := 0
	in.sim.SpawnClock(func() string { return "fault:script" }, false,
		func() (float64, bool) {
			if i == len(script) {
				return 0, false
			}
			return max(script[i].At-in.sim.Now(), 0), true
		},
		func() {
			in.apply(script[i])
			for i++; i < len(script) && script[i].At <= in.sim.Now(); i++ {
				in.apply(script[i])
			}
		})
}

func (in *Injector) apply(ev Event) {
	switch ev.Kind {
	case SiteCrash:
		h := in.hooks.Sites[ev.Site]
		in.outage(ev.Duration, &in.sites[ev.Site], h.Crash, h.Restart)
	case NetOutage:
		in.outage(ev.Duration, &in.net, in.hooks.NetDown, in.hooks.NetUp)
	case NetDegrade:
		f := ev.Factor
		if f <= 1 {
			f = in.cfg.degradeFactor()
		}
		in.outage(ev.Duration, &in.degrade, in.degradeHook(f), in.degradeHook(1))
	case DiskStall:
		h := in.hooks.Sites[ev.Site].Disks[ev.Disk]
		in.outage(ev.Duration, &in.disks[ev.Site][ev.Disk], h.Stall, h.Resume)
	case ClientCrash:
		if ev.Site < 0 || ev.Site >= len(in.clients) {
			return // no such client stream registered; scripted no-op
		}
		h := in.hooks.Clients[ev.Site]
		in.outage(ev.Duration, &in.clients[ev.Site], h.Crash, h.Restart)
	default:
		panic(fmt.Sprintf("faults: unknown scripted event kind %d", ev.Kind))
	}
}

// outage fails e now and restores it dt later on a one-shot clock; dt <= 0
// means the fault is permanent.
func (in *Injector) outage(dt float64, e *element, fail, restore func()) {
	in.fail(e, fail)
	if dt <= 0 {
		return
	}
	in.sim.SpawnClock(func() string { return "fault:recover" }, false,
		func() (float64, bool) { d := dt; dt = 0; return d, d > 0 }, // dt, then the end
		func() { in.restore(e, restore) })
}

// degradeHook returns the hook that sets the transfer-time factor to f, or
// nil when no NetDegrade hook is registered.
func (in *Injector) degradeHook(f float64) func() {
	if in.hooks.NetDegrade == nil {
		return nil
	}
	return func() { in.hooks.NetDegrade(f) }
}

// The state transitions are idempotent: a scripted crash overlapping a
// stochastic one, or a recovery arriving after a newer failure of the same
// element, must not double-count or double-fire hooks. A nil hook is
// skipped.

func (in *Injector) fail(e *element, hook func()) {
	if e.down {
		return
	}
	e.down, e.downSince = true, in.sim.Now()
	*e.failures++
	if hook != nil {
		hook()
	}
}

func (in *Injector) restore(e *element, hook func()) {
	if !e.down {
		return
	}
	e.down = false
	*e.downtime += in.sim.Now() - e.downSince
	if hook != nil {
		hook()
	}
}
