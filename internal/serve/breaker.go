package serve

import "hybridship/internal/seedmix"

// Per-(site, role) circuit breakers, the serving layer's protection against
// burning retries on a crashed or stalled site. A site that is healthy as a
// replica source may be failing as a primary (or vice versa), so each site
// carries one breaker per dependency role (exec.RolePrimary /
// exec.RoleSecondary); on an unreplicated catalog only the primary-role
// breakers ever see traffic, reproducing the legacy per-site behaviour
// bit-for-bit. Each breaker is the classic three-state machine:
//
//	closed    — requests flow; Threshold consecutive failures open it.
//	open      — requests are shed until the probe time, scheduled a seeded
//	            jittered Cooldown in the future so breakers opened by the
//	            same crash do not probe in lockstep.
//	half-open — exactly one probe attempt is admitted; its success closes
//	            the breaker, its failure re-opens it. A probe that neither
//	            reports back within twice Cooldown (e.g. its query died on an
//	            unrelated deadline) releases the slot so the breaker cannot
//	            wedge.
//
// All methods are called from simulation processes, one at a time and in
// deterministic kernel order, so plain fields need no synchronization and
// the state trajectory is identical across GOMAXPROCS.

// seedProbe tags the probe-jitter stream within the serving layer's seed
// space (seedArrival = 201 and seedDeadline = 202 are the neighbors).
// Secondary-role breakers jitter from their own tag so the primary stream
// stays bit-identical to the pre-replication serving layer.
const (
	seedProbe          int64 = 203
	seedProbeSecondary int64 = 204
)

// numBreakerRoles mirrors exec's role count (RolePrimary, RoleSecondary).
const numBreakerRoles = 2

// BreakerParams configures every site's breaker.
type BreakerParams struct {
	Threshold int     // consecutive failures that open the breaker (default 3)
	Cooldown  float64 // mean open→probe delay, seconds (default 1)
}

func (p BreakerParams) threshold() int {
	if p.Threshold <= 0 {
		return 3
	}
	return p.Threshold
}

func (p BreakerParams) cooldown() float64 {
	if p.Cooldown <= 0 {
		return 1
	}
	return p.Cooldown
}

// probeTimeout is the half-open slot reclaim time.
func (p BreakerParams) probeTimeout() float64 { return 2 * p.cooldown() }

// Breaker states.
const (
	StateClosed = iota
	StateOpen
	StateHalfOpen
)

type breaker struct {
	state   int
	fails   int     // consecutive failures while closed
	probeAt float64 // open: when the next probe becomes due
	probeBy float64 // half-open: when the outstanding probe slot is reclaimed
	opened  int64   // how many times this breaker opened (also jitter stream position)
}

// BreakerSet implements exec.SiteGate: one breaker per (server site, role).
type BreakerSet struct {
	now   func() float64
	seed  int64
	p     BreakerParams
	sites []breaker // indexed site*numBreakerRoles + role
}

// NewBreakerSet builds breakers for the given number of sites. now supplies
// the current virtual time (the simulator's clock in production, a test
// clock in unit tests); seed drives the probe-schedule jitter.
func NewBreakerSet(now func() float64, sites int, seed int64, p BreakerParams) *BreakerSet {
	return &BreakerSet{now: now, seed: seed, p: p, sites: make([]breaker, sites*numBreakerRoles)}
}

func (b *BreakerSet) at(site, role int) *breaker {
	return &b.sites[site*numBreakerRoles+role]
}

// probeDelay is the jittered cooldown before the n-th probe of the (site,
// role) breaker: Cooldown scaled into [0.75, 1.25) by its seeded jitter
// stream. Role 0 draws from the exact pre-replication per-site stream.
func (b *BreakerSet) probeDelay(site, role int, n int64) float64 {
	tag := seedProbe
	if role != 0 {
		tag = seedProbeSecondary
	}
	u := float64(uint64(seedmix.Derive(b.seed, tag, int64(site), n))) / (1 << 63)
	return b.p.cooldown() * (0.75 + 0.25*u)
}

// Allow reports whether a new attempt may depend on the site in the given
// role, transitioning open→half-open (and granting the single probe slot)
// when the probe is due.
func (b *BreakerSet) Allow(site, role int) bool {
	s := b.at(site, role)
	switch s.state {
	case StateClosed:
		return true
	case StateOpen:
		if b.now() < s.probeAt {
			return false
		}
		s.state = StateHalfOpen
		s.probeBy = b.now() + b.p.probeTimeout()
		return true
	default: // StateHalfOpen: one probe at a time, reclaiming stuck slots
		if b.now() >= s.probeBy {
			s.probeBy = b.now() + b.p.probeTimeout()
			return true
		}
		return false
	}
}

// Shed reports whether in-flight traffic to the site (in the given role)
// should be abandoned: only while hard-open (a due or outstanding probe must
// be able to run).
func (b *BreakerSet) Shed(site, role int) bool {
	s := b.at(site, role)
	return s.state == StateOpen && b.now() < s.probeAt
}

// ReportSuccess closes the breaker (a half-open probe succeeded, or traffic
// to a closed site completed) and clears the consecutive-failure count.
func (b *BreakerSet) ReportSuccess(site, role int) {
	s := b.at(site, role)
	s.fails = 0
	s.state = StateClosed
}

// ReportFailure records a failure attributed to the site in the given role:
// it re-opens a half-open breaker and opens a closed one at the failure
// threshold, each time scheduling the next probe a jittered cooldown away.
func (b *BreakerSet) ReportFailure(site, role int) {
	s := b.at(site, role)
	switch s.state {
	case StateHalfOpen:
		b.open(s, site, role)
	case StateClosed:
		s.fails++
		if s.fails >= b.p.threshold() {
			b.open(s, site, role)
		}
	}
	// Already open: late failure reports from attempts that were in flight
	// when the breaker tripped add no information.
}

func (b *BreakerSet) open(s *breaker, site, role int) {
	s.state = StateOpen
	s.fails = 0
	s.probeAt = b.now() + b.probeDelay(site, role, s.opened)
	s.opened++
}

// State returns the (site, role) breaker's current state (for tests and
// reporting).
func (b *BreakerSet) State(site, role int) int { return b.at(site, role).state }

// Opened returns how many times the site's breakers have opened, summed
// across roles (the serving layer reports one per-site counter).
func (b *BreakerSet) Opened(site int) int64 {
	var n int64
	for role := 0; role < numBreakerRoles; role++ {
		n += b.at(site, role).opened
	}
	return n
}
