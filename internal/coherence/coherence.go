// Package coherence is the client cache-coherence layer (DESIGN.md §15): it
// gives every client stream of a serve fleet its own disk cache and keeps
// those caches coherent against a write-bearing workload with server-side
// lease/callback tables, invalidation messages shipped before a write
// commits, bounded lease timeouts so a crashed or partitioned client can
// never stall writers indefinitely, and epoch-based cache discard when a
// client recovers from a crash.
//
// The package owns only protocol state — lease tables, per-client validity
// bitmaps, callback registrations, the committed page-version shadow map —
// and performs no simulation charges itself. The execution engine drives it:
// exec charges the CPU, disk and network costs of every protocol message at
// the right virtual times and calls into this package to advance the state
// machine. That split keeps the protocol unit-testable without a simulator
// and keeps every kernel-visible charge in exec where hslint's chargeflow
// analysis can see it.
//
// The soundness invariant (checked continuously by the staleness Oracle): a
// client serves a cached page only while it holds a fresh lease from the
// page's home server, and a write to that page commits only after the server
// has either delivered an invalidation to every fresh leaseholder of the
// page or waited out the leases it could not reach. Every client-initiated
// contact (fetch, renewal, update) synchronizes pending invalidations before
// it renews a lease, so a renewal can never carry a stale cache past a
// writer's wait bound.
package coherence

import (
	"fmt"

	"hybridship/internal/catalog"
	"hybridship/internal/sim"
)

// Config shapes one engine's client caches. The engine's default, when it is
// given none, is Config{NumClients: 1}: the paper's single static client
// cache.
type Config struct {
	// NumClients is the number of client cache streams (>= 1).
	NumClients int
	// LeaseDuration is the lease length in virtual seconds. 0 grants
	// infinite leases — sound only for read-only workloads (the engine
	// rejects updates under infinite leases, because a crashed leaseholder
	// could then stall writers forever): no renewals, no expiries, no
	// invalidations, and no page version ever advances.
	LeaseDuration float64
}

// Validate rejects unusable configurations.
func (c *Config) Validate() error {
	if c.NumClients < 1 {
		return fmt.Errorf("coherence: NumClients must be >= 1 (got %d)", c.NumClients)
	}
	if c.LeaseDuration < 0 {
		return fmt.Errorf("coherence: negative LeaseDuration %g", c.LeaseDuration)
	}
	return nil
}

// relInfo is the static shape of one relation, indexed by ri = RelID−1
// (catalog registration order) so every protocol walk is slice-ordered
// (hslint det-pkg: no map iteration reaches results).
type relInfo struct {
	home        int // server index of the (single) home copy
	cachedPages int // length of the client-cacheable prefix
}

// relCache is one client's cache state for one relation's cacheable prefix.
type relCache struct {
	valid []bool  // page is present and servable (lease permitting)
	ver   []int64 // committed version the page was fetched at
}

// clientState is everything one client workstation knows.
type clientState struct {
	up      bool
	epoch   int64   // bumped on every crash recovery; stamps all contacts
	leases  []Lease // per server, the client's view
	seenInc []int64 // per server, last server incarnation observed
	cache   []relCache
	stats   ClientStats
}

// serverState is one server's lease/callback tables. A crash wipes them (the
// tables are volatile); restart opens a write-grace window of one lease
// duration during which no write may commit, covering clients whose
// pre-crash leases the server no longer remembers.
type serverState struct {
	incarnation int64   // bumped on restart; clients discard on mismatch
	graceUntil  float64 // no write commits before this after a restart
	leases      []Lease // per client, the server's view
	epochs      []int64 // per client, registered epoch (-1: forgotten in a crash)
	// cached[c][ri][pg]: client c registered page pg of relation ri here.
	// unsynced[c][ri][pg]: pg was invalidated by a committed write and client
	// c has not yet synchronized. Only relations homed at this server have
	// non-nil rows. cached is always a superset of the client's valid bits,
	// so invalidating every unsynced page reaches every stale page.
	// anyUnsynced[c] is set whenever some unsynced[c] bit may be set, so a
	// contact with nothing owed skips the sweep.
	cached      [][][]bool
	unsynced    [][][]bool
	anyUnsynced []bool
	writes      []*Write // writes between BeginWrite and Commit/Abort
}

// Write is one in-flight update at its relation's home server, from
// BeginWrite (dirty pages marked, invalidations owed) to CommitWrite or
// AbortWrite. The issuing process parks on it until every fresh leaseholder
// has acknowledged or the wait bound passes.
type Write struct {
	RelIdx   int // the written relation's RelID−1
	Page0    int
	N        int
	Writer   int     // issuing client
	Pending  []int   // clients owed an invalidation, ack outstanding
	Deadline float64 // wait bound: max lease expiry among Pending at BeginWrite

	server  int
	aborted bool
	proc    *sim.Proc
	waiting bool
}

// Done reports whether every owed acknowledgement has arrived.
func (w *Write) Done() bool { return len(w.Pending) == 0 }

// Aborted reports whether the home server crashed under this write.
func (w *Write) Aborted() bool { return w.aborted }

// Park blocks the calling process until Wake (ack complete, wait bound, or
// server crash). The waiting flag is set strictly before the park and
// cleared on resume, so a Wake can never unblock a running process.
func (w *Write) Park(p *sim.Proc) {
	w.proc = p
	w.waiting = true
	p.Block()
	w.waiting = false
}

// Wake unparks the writer if (and only if) it is parked.
func (w *Write) Wake() {
	if w.waiting {
		w.waiting = false
		w.proc.Unblock()
	}
}

// ClientStats is one client stream's coherence counters. Callback traffic is
// accounted here, separately from query fetch traffic, so per-stream serving
// stats can attribute invalidation shed/charge costs to the stream that
// caused them.
type ClientStats struct {
	CacheHitPages    int64 // prefix pages served from this client's cache
	CacheMissPages   int64 // invalidated prefix pages refetched from the home
	LeaseRenewals    int64 // renewal round trips taken on the read path
	InvalidationsIn  int64 // callback invalidation messages delivered here
	PagesInvalidated int64 // cached pages discarded by those callbacks
	CallbackMsgs     int64 // control messages on the callback path (invalidations + acks)
	CallbackBytes    int64
	UpdatesIssued    int64
	UpdatesCommitted int64
	UpdatesFailed    int64
	StaleReads       int64 // oracle: stale pages this client read (must stay 0)
}

// WriteStats aggregates the write protocol across all clients.
type WriteStats struct {
	Issued                 int64
	Committed              int64
	Aborted                int64 // home server crashed mid-protocol
	InvalidationsSent      int64
	InvalidationsDelivered int64
	InvalidationsLost      int64 // target client was down at delivery
	Acks                   int64
	BoundExpiredCommits    int64   // committed at the lease bound with acks missing
	FetchRaces             int64   // fetch replies left uncached: a write committed or was in flight during the round trip
	WaitTime               float64 // total virtual time writers spent parked
}

// OracleStats is the staleness oracle's verdict: CachedReads counts every
// page served from a client cache, StaleReads how many of those lagged the
// committed version map, and StaleCommittedReads how many stale pages were
// read by query attempts that went on to commit. A sound protocol holds all
// stale counters at zero under every fault schedule.
type OracleStats struct {
	CachedReads         int64
	StaleReads          int64
	StaleCommittedReads int64
}

// Summary is the DeepEqual-friendly roll-up embedded in serve results.
type Summary struct {
	Writes    WriteStats
	Oracle    OracleStats
	PerClient []ClientStats
}

// State is the whole coherence protocol state of one engine: every client's
// cache and lease view, every server's lease/callback tables, the in-flight
// writes, and the committed page-version shadow map the oracle checks
// against. All mutating methods are called from simulation processes at the
// virtual time the corresponding protocol step happens. Every ri parameter
// is a relation's catalog.RelID−1, its catalog registration position.
type State struct {
	cfg Config
	// committed[ri][pg] is the committed version of page pg: it advances
	// when an update commits at the home copy, and a cached copy of the
	// page is fresh exactly when its version matches. Pure bookkeeping,
	// charged nothing, so the oracle can read it without moving the
	// schedule.
	committed [][]int64
	rels      []relInfo
	homeRels  [][]int // per server, relation indices homed there
	clients   []clientState
	servers   []serverState

	commitSeq []int64    // per relation, bumped at every commit (fetch-race guard)
	writeBusy []bool     // per relation, write slot held
	writeQ    [][]func() // per relation, FIFO of parked writer wake-ups

	wstats WriteStats
	oracle OracleStats
}

// NewState validates the configuration against the catalog and builds the
// initial protocol state. Caches start warm: every client holds the cacheable
// prefix of every relation, valid at version zero and registered in the home
// server's callback tables — the paper's static client cache, preloaded
// before the run begins. Leases start ungranted, so under finite leases the
// first read from each server pays one renewal round trip.
//
// A finite lease requires an unreplicated catalog: updates go to the single
// home copy, and a replicated secondary would serve stale pages the protocol
// never learns about. Infinite leases (LeaseDuration 0) accept replicas: the
// engine rejects every update under them, so no page version ever advances
// and every copy of a page stays at the version the client cached.
func NewState(cfg Config, cat *catalog.Catalog) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := &State{
		cfg:      cfg,
		homeRels: make([][]int, cat.NumServers),
	}
	for ri, name := range cat.Relations() {
		r := cat.MustRelation(name)
		if cfg.LeaseDuration > 0 && r.NumCopies() != 1 {
			return nil, fmt.Errorf("coherence: relation %q has %d copies; finite leases require an unreplicated catalog (RF=1)",
				name, r.NumCopies())
		}
		home := int(r.Home)
		st.rels = append(st.rels, relInfo{home: home, cachedPages: cat.CachedPages(name)})
		st.committed = append(st.committed, make([]int64, r.Pages(cat.PageSize)))
		st.homeRels[home] = append(st.homeRels[home], ri)
	}
	nr := len(st.rels)
	st.commitSeq = make([]int64, nr)
	st.writeBusy = make([]bool, nr)
	st.writeQ = make([][]func(), nr)

	st.clients = make([]clientState, cfg.NumClients)
	for c := range st.clients {
		cs := &st.clients[c]
		cs.up = true
		cs.leases = make([]Lease, cat.NumServers)
		cs.seenInc = make([]int64, cat.NumServers)
		cs.cache = make([]relCache, nr)
		for ri, info := range st.rels {
			if info.cachedPages > 0 {
				cs.cache[ri] = relCache{
					valid: make([]bool, info.cachedPages),
					ver:   make([]int64, info.cachedPages),
				}
				setBits(cs.cache[ri].valid) // warm: prefix preloaded at version 0
			}
		}
	}
	st.servers = make([]serverState, cat.NumServers)
	for s := range st.servers {
		sv := &st.servers[s]
		sv.leases = make([]Lease, cfg.NumClients)
		sv.epochs = make([]int64, cfg.NumClients) // epoch 0: fleet registered at boot
		sv.cached = make([][][]bool, cfg.NumClients)
		sv.unsynced = make([][][]bool, cfg.NumClients)
		sv.anyUnsynced = make([]bool, cfg.NumClients)
		for c := 0; c < cfg.NumClients; c++ {
			sv.cached[c] = make([][]bool, nr)
			sv.unsynced[c] = make([][]bool, nr)
			for _, ri := range st.homeRels[s] {
				if cp := st.rels[ri].cachedPages; cp > 0 {
					sv.cached[c][ri] = make([]bool, cp)
					sv.unsynced[c][ri] = make([]bool, cp)
					setBits(sv.cached[c][ri])
				}
			}
		}
	}
	return st, nil
}

// NumClients returns the configured client count.
func (st *State) NumClients() int { return st.cfg.NumClients }

// LeaseDuration returns the configured lease length (0 = infinite).
func (st *State) LeaseDuration() float64 { return st.cfg.LeaseDuration }

// Home returns the server index of relation ri's home copy.
func (st *State) Home(ri int) int { return st.rels[ri].home }

// RelPages returns relation ri's total page count.
func (st *State) RelPages(ri int) int { return len(st.committed[ri]) }

// ClientUp reports whether client c is currently running.
func (st *State) ClientUp(c int) bool { return st.clients[c].up }

// Epoch returns client c's current cache epoch.
func (st *State) Epoch(c int) int64 { return st.clients[c].epoch }

// CommitSeq returns relation ri's commit sequence number. A fetch captures
// it at request-send time; the reply is cacheable only if it is unchanged at
// apply time, which rules out stamping data read before a commit with a
// version from after it.
func (st *State) CommitSeq(ri int) int64 { return st.commitSeq[ri] }

// LeaseFresh reports whether client c may serve pages cached from server s
// at time now without a renewal round trip.
func (st *State) LeaseFresh(c, s int, now float64) bool {
	if st.cfg.LeaseDuration <= 0 {
		return true
	}
	return st.clients[c].leases[s].Fresh(now)
}

// ClientValid reports whether client c's cache holds a valid copy of page pg
// of relation ri. A valid page is served from the cache (lease permitting);
// an invalid one is refetched from the home server.
func (st *State) ClientValid(c, ri, pg int) bool {
	cache := st.clients[c].cache[ri]
	return cache.valid != nil && cache.valid[pg]
}

// RecordCachedRead runs the staleness oracle over cache-served page pg and
// reports whether it was stale. The oracle is pure observation — the
// simulation is never steered by it — so a protocol bug shows up as a
// nonzero counter, not a changed schedule.
func (st *State) RecordCachedRead(c, ri, pg int) (stale bool) {
	stale = st.clients[c].cache[ri].ver[pg] != st.committed[ri][pg]
	cs := &st.clients[c].stats
	cs.CacheHitPages++
	st.oracle.CachedReads++
	if stale {
		cs.StaleReads++
		st.oracle.StaleReads++
	}
	return stale
}

// NoteCacheMiss counts one invalidated prefix page client c had to refetch.
func (st *State) NoteCacheMiss(c int) {
	st.clients[c].stats.CacheMissPages++
}

// NoteRenewal counts a lease renewal round trip taken by client c.
func (st *State) NoteRenewal(c int) {
	st.clients[c].stats.LeaseRenewals++
}

// NoteCommittedReads rolls stale-page reads of a committed query attempt
// into the oracle's headline counter. Reads by aborted attempts stay in
// StaleReads only — an aborted attempt's output was discarded, so it cannot
// have exposed staleness, but the protocol should not have produced it
// either way.
func (st *State) NoteCommittedReads(stale int64) {
	st.oracle.StaleCommittedReads += stale
}

// reconcileEpoch drops server s's callback state about client c if c has
// recovered from a crash since it last contacted s: the registrations
// describe a cache that no longer exists. Owed invalidations are counted as
// acknowledged (the cache they would invalidate was discarded wholesale).
func (st *State) reconcileEpoch(c, s int) {
	sv := &st.servers[s]
	if sv.epochs[c] == st.clients[c].epoch {
		return
	}
	for _, ri := range st.homeRels[s] {
		clearBits(sv.cached[c][ri])
		clearBits(sv.unsynced[c][ri])
	}
	sv.anyUnsynced[c] = false
	sv.leases[c].Revoke()
	for _, w := range sv.writes {
		st.ackWrite(w, c)
	}
	sv.epochs[c] = st.clients[c].epoch
}

// reconcileIncarnation discards client c's cached pages of relations homed
// at server s if s has restarted since c last talked to it: the server lost
// its callback tables in the crash, so it can no longer promise to
// invalidate those pages. Skipped under infinite leases (read-only mode —
// nothing can go stale, so the static cache survives server crashes).
func (st *State) reconcileIncarnation(c, s int) {
	if st.cfg.LeaseDuration <= 0 {
		return
	}
	cs := &st.clients[c]
	if cs.seenInc[s] == st.servers[s].incarnation {
		return
	}
	for _, ri := range st.homeRels[s] {
		clearBits(cs.cache[ri].valid)
	}
	cs.seenInc[s] = st.servers[s].incarnation
}

// syncClient applies every invalidation server s owes client c: the
// unsynced pages go invalid at the client, the registrations clear, and any
// write still waiting on c is acknowledged — the client provably knows.
// Returns how many pages were invalidated.
func (st *State) syncClient(c, s int) int {
	st.reconcileEpoch(c, s)
	sv := &st.servers[s]
	cs := &st.clients[c]
	dropped := 0
	if sv.anyUnsynced[c] {
		for _, ri := range st.homeRels[s] {
			un := sv.unsynced[c][ri]
			if un == nil {
				continue
			}
			cache := cs.cache[ri]
			cd := sv.cached[c][ri]
			for pg := range un {
				if un[pg] {
					if cache.valid[pg] {
						dropped++
					}
					cache.valid[pg] = false
					cd[pg] = false
					un[pg] = false
				}
			}
		}
		sv.anyUnsynced[c] = false
	}
	for _, w := range sv.writes {
		st.ackWrite(w, c)
	}
	return dropped
}

// SyncContact is a client-initiated control contact with server s (a fetch
// request, a lease renewal, an update submission): it reconciles epochs and
// incarnations, applies every pending invalidation, and renews the lease on
// both sides stamped at sendT — the time the client initiated the contact,
// the most conservative instant the renewal could date from.
func (st *State) SyncContact(c, s int, sendT float64) {
	st.reconcileIncarnation(c, s)
	st.syncClient(c, s)
	st.clients[c].leases[s].Renew(sendT, st.cfg.LeaseDuration)
	st.servers[s].leases[c].Renew(sendT, st.cfg.LeaseDuration)
}

// RegisterFetch records that client c fetched page pg of relation ri and
// may cache it if it lies inside the cacheable prefix — unless a write raced
// the fetch, in which case the reply is conservatively left uncached (the
// next read refetches). Two races are distinguishable: the relation
// committed a write since the request was sent (seqAtSend no longer
// matches), so the fetched data may predate the commit; or a write is still
// in flight at apply time (write slot busy), so the reply may carry a page
// already dirtied on the server disk that would be stamped with the
// pre-commit version — and, registered only now, would be missed by the
// invalidation set the write computed at BeginWrite. Call after SyncContact
// of the same contact.
func (st *State) RegisterFetch(c, ri, pg int, seqAtSend int64) {
	if st.commitSeq[ri] != seqAtSend || st.writeBusy[ri] {
		st.wstats.FetchRaces++
		return
	}
	info := st.rels[ri]
	if pg >= info.cachedPages {
		return
	}
	cache := st.clients[c].cache[ri]
	cache.valid[pg] = true
	cache.ver[pg] = st.committed[ri][pg]
	st.servers[info.home].cached[c][ri][pg] = true
}

// WriteBusy reports whether relation ri's write slot is held. Writes to one
// relation are serialized FIFO at its home server.
func (st *State) WriteBusy(ri int) bool { return st.writeBusy[ri] }

// AwaitWriteSlot queues wake to run when relation ri's write slot frees.
func (st *State) AwaitWriteSlot(ri int, wake func()) {
	st.writeQ[ri] = append(st.writeQ[ri], wake)
}

// AcquireWriteSlot takes relation ri's write slot; the caller must have
// observed it free.
func (st *State) AcquireWriteSlot(ri int) {
	if st.writeBusy[ri] {
		panic("coherence: write slot already held")
	}
	st.writeBusy[ri] = true
}

func (st *State) releaseWriteSlot(ri int) {
	st.writeBusy[ri] = false
	st.wakeNextWriter(ri)
}

// AbandonWriteSlot passes the write-slot wake-up along when a woken writer
// bails out without acquiring the slot (its client or the relation's home
// server went down while it queued). Without this the remaining FIFO waiters
// would sleep forever — releaseWriteSlot wakes exactly one of them.
func (st *State) AbandonWriteSlot(ri int) {
	if !st.writeBusy[ri] {
		st.wakeNextWriter(ri)
	}
}

func (st *State) wakeNextWriter(ri int) {
	if q := st.writeQ[ri]; len(q) > 0 {
		wake := q[0]
		copy(q, q[1:])
		st.writeQ[ri] = q[:len(q)-1]
		wake()
	}
}

// WriteGraceRemaining returns how long writes at server s must still wait
// after a restart before committing (0 when the window has passed). The
// window spans one lease duration: any client holding a lease the crashed
// server forgot sees it expire before the first post-restart commit.
func (st *State) WriteGraceRemaining(s int, now float64) float64 {
	if dt := st.servers[s].graceUntil - now; dt > 0 {
		return dt
	}
	return 0
}

// BeginWrite opens the invalidation phase of an update by client writer
// dirtying pages [pg0, pg0+n) of relation ri: the dirty pages are marked
// unsynced for every other client caching them, and every such client
// holding a fresh lease joins the pending set the writer must collect
// acknowledgements from (or wait out, bounded by the max lease expiry —
// snapshotted now and never extended, so later renewals cannot stall the
// writer). The writer drops its own copies of the pages at once: it knows
// they are about to change, and a query it runs concurrently must not read
// them from cache between the commit and the commit acknowledgement. The
// caller must hold the write slot.
func (st *State) BeginWrite(ri, pg0, n, writer int, now float64) *Write {
	info := st.rels[ri]
	s := info.home
	sv := &st.servers[s]
	w := &Write{
		RelIdx: ri, Page0: pg0, N: n, Writer: writer,
		Deadline: now, server: s,
	}
	hi := pg0 + n
	if hi > info.cachedPages {
		hi = info.cachedPages
	}
	for c := range st.clients {
		cd := sv.cached[c][ri]
		if cd == nil {
			continue
		}
		if c == writer {
			cache := st.clients[c].cache[ri]
			for pg := pg0; pg < hi; pg++ {
				cache.valid[pg] = false
				cd[pg] = false
				sv.unsynced[c][ri][pg] = false
			}
			continue
		}
		touched := false
		for pg := pg0; pg < hi; pg++ {
			if cd[pg] {
				sv.unsynced[c][ri][pg] = true
				touched = true
			}
		}
		if !touched {
			continue
		}
		sv.anyUnsynced[c] = true
		if sv.leases[c].Fresh(now) {
			w.Pending = append(w.Pending, c)
			if exp := sv.leases[c].Expiry; exp > w.Deadline {
				w.Deadline = exp
			}
		}
		// Clients with expired leases are not messaged: they cannot serve
		// cached pages without a renewal, and the renewal's SyncContact
		// applies the unsynced marks before the lease comes back.
	}
	sv.writes = append(sv.writes, w)
	st.wstats.Issued++
	st.clients[writer].stats.UpdatesIssued++
	st.wstats.InvalidationsSent += int64(len(w.Pending))
	return w
}

// ackWrite removes c from w's pending set, waking the writer when the set
// drains. Idempotent: syncs and explicit acks may race benignly.
func (st *State) ackWrite(w *Write, c int) {
	for i, pc := range w.Pending {
		if pc == c {
			w.Pending = append(w.Pending[:i], w.Pending[i+1:]...)
			if len(w.Pending) == 0 {
				w.Wake()
			}
			return
		}
	}
}

// DeliverInvalidation applies a callback invalidation arriving at client c
// from server s: every unsynced page goes invalid, exactly as a
// client-initiated sync would do (the lease is not renewed — the contact was
// not client-initiated, so the client cannot date it). Returns the number of
// cached pages dropped, for per-stream accounting.
func (st *State) DeliverInvalidation(c, s int) int {
	dropped := st.syncClient(c, s)
	cs := &st.clients[c].stats
	cs.InvalidationsIn++
	cs.PagesInvalidated += int64(dropped)
	st.wstats.InvalidationsDelivered++
	return dropped
}

// AckInvalidation records the acknowledgement message for write w from
// client c reaching the home server. Usually a no-op for the pending set —
// DeliverInvalidation already acknowledged through syncClient — but it keeps
// the message count honest.
func (st *State) AckInvalidation(w *Write, c int) {
	st.wstats.Acks++
	st.ackWrite(w, c)
}

// NoteInvalidationLost counts an invalidation that reached a crashed client:
// no acknowledgement will come, and the writer waits out the lease instead.
func (st *State) NoteInvalidationLost() {
	st.wstats.InvalidationsLost++
}

// NoteCallbackTraffic attributes nmsgs callback-path control messages of
// nbytes total to client c's stream (invalidation deliveries and their
// acks), keeping them separate from the stream's query fetch traffic.
func (st *State) NoteCallbackTraffic(c, nmsgs, nbytes int) {
	cs := &st.clients[c].stats
	cs.CallbackMsgs += int64(nmsgs)
	cs.CallbackBytes += int64(nbytes)
}

// NoteWriterWait accounts dt seconds of a writer parked on invalidations,
// plus whether the wait ended at the lease bound with acks still missing.
func (st *State) NoteWriterWait(dt float64, boundExpired bool) {
	st.wstats.WaitTime += dt
	if boundExpired {
		st.wstats.BoundExpiredCommits++
	}
}

// CommitWrite commits w: the committed versions of the dirtied pages
// advance, the commit sequence bumps (fetch-race guard), and the write slot
// passes to the next writer. Sound only after w's pending set drained or its
// deadline passed — the caller's wait loop guarantees it.
func (st *State) CommitWrite(w *Write) {
	vers := st.committed[w.RelIdx]
	for pg := w.Page0; pg < w.Page0+w.N; pg++ {
		vers[pg]++
	}
	st.commitSeq[w.RelIdx]++
	st.unlinkWrite(w)
	st.wstats.Committed++
	st.clients[w.Writer].stats.UpdatesCommitted++
	st.releaseWriteSlot(w.RelIdx)
}

// AbortWrite abandons w without committing (home server crashed mid
// protocol): versions do not advance, but the unsynced marks stay — the
// pages were physically dirtied at the server, so cached copies must still
// be dropped before reuse. The marks are wiped with the rest of the server's
// tables by CrashServer; if the server survived (client-side failure), they
// conservatively over-invalidate.
func (st *State) AbortWrite(w *Write) {
	st.unlinkWrite(w)
	st.wstats.Aborted++
	st.clients[w.Writer].stats.UpdatesFailed++
	st.releaseWriteSlot(w.RelIdx)
}

func (st *State) unlinkWrite(w *Write) {
	sv := &st.servers[w.server]
	for i, x := range sv.writes {
		if x == w {
			sv.writes = append(sv.writes[:i], sv.writes[i+1:]...)
			return
		}
	}
}

// NoteUpdateFailed counts an update that failed before reaching BeginWrite
// (client down, home server down, grace abort).
func (st *State) NoteUpdateFailed(c int) {
	st.clients[c].stats.UpdatesIssued++
	st.clients[c].stats.UpdatesFailed++
	st.wstats.Issued++
	st.wstats.Aborted++
}

// CrashClient marks client c down. Its cache and leases are untouched — the
// crash is exactly why they can no longer be trusted, and RestartClient
// discards them under a new epoch. Servers keep counting c's leases against
// writers until they expire: a server cannot tell a crashed client from a
// partitioned one, which is the whole reason leases are bounded.
func (st *State) CrashClient(c int) {
	st.clients[c].up = false
}

// RestartClient brings client c back with a fresh cache epoch: every cached
// page is discarded, every lease forgotten. Servers learn the new epoch on
// c's next contact and drop their stale callback registrations then.
func (st *State) RestartClient(c int) {
	cs := &st.clients[c]
	cs.up = true
	cs.epoch++
	for ri := range cs.cache {
		clearBits(cs.cache[ri].valid)
	}
	for s := range cs.leases {
		cs.leases[s].Revoke()
	}
}

// CrashServer wipes server s's volatile lease/callback tables and aborts its
// in-flight writes (waking their writers, whose commit checks observe the
// crash). Client-side caches and leases survive — the write-grace window
// opened by RestartServer keeps them sound.
func (st *State) CrashServer(s int) {
	sv := &st.servers[s]
	for c := range st.clients {
		sv.leases[c].Revoke()
		sv.epochs[c] = -1
		for _, ri := range st.homeRels[s] {
			clearBits(sv.cached[c][ri])
			clearBits(sv.unsynced[c][ri])
		}
		sv.anyUnsynced[c] = false
	}
	for len(sv.writes) > 0 {
		w := sv.writes[0]
		w.aborted = true
		st.unlinkWrite(w)
		w.Pending = w.Pending[:0]
		w.Wake()
	}
}

// RestartServer reopens server s at time now under a new incarnation, with
// writes held back for one lease duration (see WriteGraceRemaining).
func (st *State) RestartServer(s int, now float64) {
	sv := &st.servers[s]
	sv.incarnation++
	sv.graceUntil = now + st.cfg.LeaseDuration
}

// Summary snapshots the coherence counters for embedding in results.
func (st *State) Summary() *Summary {
	sum := &Summary{Writes: st.wstats, Oracle: st.oracle}
	sum.PerClient = make([]ClientStats, len(st.clients))
	for c := range st.clients {
		sum.PerClient[c] = st.clients[c].stats
	}
	return sum
}

// Oracle returns the staleness oracle counters so far.
func (st *State) Oracle() OracleStats { return st.oracle }

// CommittedVersion exposes the shadow map for tests.
func (st *State) CommittedVersion(ri, pg int) int64 { return st.committed[ri][pg] }

func clearBits(b []bool) {
	for i := range b {
		b[i] = false
	}
}

func setBits(b []bool) {
	for i := range b {
		b[i] = true
	}
}
