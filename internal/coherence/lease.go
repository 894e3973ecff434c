package coherence

import "math"

// Lease is one (client, server) lease. A lease covers every page a client
// caches from relations homed at one server: while it is fresh, the server
// promises to invalidate the client before any write to those pages
// commits, so the client may serve cached pages without contacting the
// server. Once it expires (or is revoked), the cached pages are still
// physically present but may no longer be served until a renewal round
// trip re-establishes the promise.
//
// Both endpoints keep their own copy; soundness requires only that the
// server's view never expires before the client's, which the protocol
// guarantees by stamping both views with the same expiry, taken at the
// instant the client initiated the contact (the most conservative time the
// client could believe the lease began).
//
// The zero value is an ungranted lease. Expiry is lazy: nothing fires at the
// expiry instant, and both endpoints simply observe it on their next
// decision. The methods are plain arithmetic on one field, so renewals sit
// on the read fast path at zero cost.
type Lease struct {
	Expiry float64 // absolute virtual time; +Inf for infinite leases, 0 when ungranted or revoked
}

// Renew extends the lease to at least now+dur; dur <= 0 makes it infinite
// (read-only configurations only — an infinite lease can never be waited
// out by a writer). The max keeps overlapping contacts monotonic: two
// in-flight round trips from the same client may complete out of
// initiation order, and a renewal must never shorten a promise already made.
func (l *Lease) Renew(now, dur float64) {
	if dur <= 0 {
		l.Expiry = math.Inf(1)
		return
	}
	l.Expiry = max(l.Expiry, now+dur)
}

// Revoke withdraws the lease: the grant no longer exists on either side
// (epoch change, server table loss).
func (l *Lease) Revoke() { l.Expiry = 0 }

// Fresh reports whether the lease is unexpired at time now — the one
// predicate that authorizes serving cached pages (client side) and obliges
// invalidation before commit (server side). Both sides evaluate the
// identical expression on the identical expiry, so they can never disagree.
func (l *Lease) Fresh(now float64) bool { return now < l.Expiry }
