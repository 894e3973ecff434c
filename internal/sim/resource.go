package sim

import (
	"fmt"
	"math"
)

// Resource is a single server behind a FIFO queue. The paper models CPUs
// and the network link this way ("The CPU is modeled as a FIFO queue", "The
// network is modeled simply as a FIFO queue with a specified bandwidth").
type Resource struct {
	sim     *Simulator
	name    string
	inUse   bool
	waiters fifo[Ref]

	// accounting
	busy     Time // total busy seconds
	requests int64
}

// NewResource creates a single-server resource.
func NewResource(s *Simulator, name string) *Resource {
	return &Resource{sim: s, name: name}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Acquire obtains the resource, blocking in FIFO order until it is free.
//
// A queued waiter can be interrupted at the very instant Release hands it
// the resource (the hand-off only schedules its wake-up), and it then
// unwinds here, before its caller could defer a Release. The deferred check
// gives the resource back, so it passes on to the next waiter instead of
// leaking.
func (r *Resource) Acquire(p *Proc) {
	r.requests++
	if !r.inUse && r.waiters.len() == 0 {
		r.inUse = true
		return
	}
	ref := p.Ref()
	r.waiters.push(ref)
	granted := false
	defer func() {
		if !granted && r.handedTo(ref) {
			r.Release(p)
		}
	}()
	p.Block()
	granted = true
}

// handedTo reports whether Release already passed the resource to the
// waiter queued as ref: Release dequeues exactly the waiter it hands the
// resource to, so a ref no longer queued was served.
func (r *Resource) handedTo(ref Ref) bool {
	for i := range r.waiters.len() {
		if r.waiters.at(i) == ref {
			return false
		}
	}
	return true
}

// Release frees the resource, handing it to the longest-waiting process, if
// any. Waiters that unwound (were interrupted) since queueing are skipped:
// their generation bump invalidated the Ref.
func (r *Resource) Release(p *Proc) {
	if !r.inUse {
		panic("sim: release of idle resource " + r.name)
	}
	for r.waiters.len() > 0 {
		if next := r.waiters.pop(); next.Valid() {
			next.Unblock()
			// The resource passes directly to the waiter; it stays in use.
			return
		}
	}
	r.inUse = false
}

// Use acquires the resource, holds it busy for dt, and releases it. This is
// the common pattern for charging CPU time or network wire time.
//
// The release is deferred, so a holder unwound mid-hold by Interrupt still
// frees the resource.
func (r *Resource) Use(p *Proc, dt Time) {
	r.Acquire(p)
	r.busy += dt
	defer r.Release(p)
	p.Hold(dt)
}

// UseRun charges a sequence of busy intervals against the resource, exactly
// as if Use had been called once per part, and is the primitive behind the
// execution engine's coalesced per-batch CPU charges. When the whole run is
// provably unobservable — the resource is free with nobody queued, no
// pending event falls at or before the run's end, the shard-window horizon
// is not crossed, and no Trace is recording dispatches — the per-part
// acquire/hold/release round trips collapse into one in-place clock advance.
// Otherwise every part goes through Use, which is the reference behavior.
// Either way the clock lands on the identical left-folded sum
// ((now+d1)+d2)+… and the busy/request counters see every part, so batching
// charges into one UseRun is bit-equivalent to issuing them one by one.
func (r *Resource) UseRun(p *Proc, parts []Time) {
	switch len(parts) {
	case 0:
		return
	case 1:
		r.Use(p, parts[0])
		return
	}
	s := r.sim
	target := s.now
	for _, dt := range parts {
		if dt < 0 || math.IsNaN(dt) {
			panic(fmt.Sprintf("sim: UseRun part %g in %q", dt, p.Name()))
		}
		target += dt
	}
	if s.Trace == nil && !r.inUse && r.waiters.len() == 0 &&
		target < s.horizon && s.events.nextAt() > target {
		// Quiet window: no other process can run before target, so the
		// intermediate acquire/release states of the per-part sequence are
		// unobservable. Fold the counters and jump the clock in place.
		for _, dt := range parts {
			r.requests++
			r.busy += dt
		}
		s.now = target
		return
	}
	for _, dt := range parts {
		r.Use(p, dt)
	}
}

// BusyTime reports the cumulative busy seconds consumed so far.
func (r *Resource) BusyTime() Time { return r.busy }

// Requests reports how many acquisitions have been requested so far.
func (r *Resource) Requests() int64 { return r.requests }

// QueueLen reports the number of processes currently waiting.
func (r *Resource) QueueLen() int { return r.waiters.len() }

// InUse reports whether the resource is busy.
func (r *Resource) InUse() bool { return r.inUse }
