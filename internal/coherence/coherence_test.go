package coherence

import (
	"fmt"
	"reflect"
	"testing"

	"hybridship/internal/catalog"
)

// testCatalog: two relations, 10 pages each, 50% cacheable prefix, homed on
// two servers.
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(4096, 2)
	for i, home := range []catalog.SiteID{0, 1} {
		name := []string{"A", "B"}[i]
		if err := cat.AddRelation(catalog.Relation{
			Name: name, Tuples: 400, TupleBytes: 100, Home: home,
		}); err != nil {
			t.Fatal(err)
		}
		if err := cat.SetCachedFraction(name, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func newTestState(t *testing.T, clients int, lease float64) *State {
	t.Helper()
	st, err := NewState(Config{NumClients: clients, LeaseDuration: lease}, testCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// replicatedCatalog is testCatalog with relation A copied onto both servers.
func replicatedCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := testCatalog(t)
	if err := cat.SetCopies("A", []catalog.SiteID{0, 1}); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestNewStateRejectsReplicas: finite leases need one copy per relation,
// because a secondary would serve pages a committed write made stale.
func TestNewStateRejectsReplicas(t *testing.T) {
	if _, err := NewState(Config{NumClients: 1, LeaseDuration: 5}, replicatedCatalog(t)); err == nil {
		t.Fatal("NewState accepted finite leases over a replicated catalog")
	}
	if _, err := NewState(Config{NumClients: 0}, testCatalog(t)); err == nil {
		t.Fatal("NewState accepted NumClients=0")
	}
	if _, err := NewState(Config{NumClients: 1, LeaseDuration: -1}, testCatalog(t)); err == nil {
		t.Fatal("NewState accepted a negative lease duration")
	}
}

// TestNewStateAcceptsReadOnlyReplicas: infinite leases admit no update, so
// no page version can advance and every copy stays fresh; the replicated
// relation's callback registrations live at its home server alone.
func TestNewStateAcceptsReadOnlyReplicas(t *testing.T) {
	for _, nc := range []int{1, 2} {
		st, err := NewState(Config{NumClients: nc}, replicatedCatalog(t))
		if err != nil {
			t.Fatalf("NumClients %d: %v", nc, err)
		}
		if st.Home(0) != 0 {
			t.Fatalf("home of A = %d, want 0", st.Home(0))
		}
		for c := 0; c < nc; c++ {
			if !st.ClientValid(c, 0, 0) {
				t.Fatalf("client %d does not start with A's prefix cached", c)
			}
		}
	}
}

// fetchAll simulates client c fetching and caching the whole prefix of rel
// 0, one page fault per page.
func fetchAll(st *State, c int, now float64) {
	st.SyncContact(c, st.Home(0), now)
	for pg := 0; pg < 5; pg++ {
		st.RegisterFetch(c, 0, pg, st.CommitSeq(0))
	}
}

// validPages counts the pages of [pg, pg+n) of rel 0 that client c caches
// as valid.
func validPages(st *State, c, pg, n int) int {
	valid := 0
	for i := pg; i < pg+n; i++ {
		if st.ClientValid(c, 0, i) {
			valid++
		}
	}
	return valid
}

// readPages serves pages [pg, pg+n) of rel 0 from client c's cache through
// the staleness oracle and returns how many were stale.
func readPages(st *State, c, pg, n int) int {
	stale := 0
	for i := pg; i < pg+n; i++ {
		if st.RecordCachedRead(c, 0, i) {
			stale++
		}
	}
	return stale
}

// Caches start warm: every client serves the full prefix at version 0, as
// the paper's preloaded static cache does, and the warm pages are
// registered in the home server's callback tables from the start.
func TestWarmStart(t *testing.T) {
	st := newTestState(t, 2, 0.5)
	for c := 0; c < 2; c++ {
		if n := validPages(st, c, 0, 5); n != 5 {
			t.Fatalf("client %d starts with %d valid prefix pages, want 5", c, n)
		}
		if stale := readPages(st, c, 0, 5); stale != 0 {
			t.Fatalf("client %d warm read reported %d stale pages", c, stale)
		}
		if st.LeaseFresh(c, 0, 0) {
			t.Fatalf("client %d holds a lease before any contact", c)
		}
	}
	// A pre-contact write finds the warm registrations and marks the pages
	// unsynced, so the first contact invalidates them.
	st.AcquireWriteSlot(0)
	st.CommitWrite(st.BeginWrite(0, 0, 1, 1, 0.0))
	st.SyncContact(0, st.Home(0), 0.1)
	if st.ClientValid(0, 0, 0) {
		t.Fatal("warm page not invalidated by a pre-contact write")
	}
}

func TestRegisterFetchRevalidates(t *testing.T) {
	st := newTestState(t, 2, 0.5)
	// A write by client 1 dirties the whole warm prefix; both clients sync.
	st.AcquireWriteSlot(0)
	st.CommitWrite(st.BeginWrite(0, 0, 5, 1, 0.0))
	st.SyncContact(0, st.Home(0), 0.3)
	st.SyncContact(1, st.Home(0), 0.3)
	if n := validPages(st, 0, 0, 5); n != 0 {
		t.Fatalf("%d prefix pages valid after invalidation, want 0", n)
	}
	// A fetch revalidates client 0's prefix at the committed versions.
	fetchAll(st, 0, 1.0)
	if n := validPages(st, 0, 0, 5); n != 5 {
		t.Fatalf("%d prefix pages valid after fetch, want 5", n)
	}
	if st.ClientValid(1, 0, 0) {
		t.Fatal("client 1 revalidated by client 0's fetch")
	}
	if stale := readPages(st, 0, 0, 5); stale != 0 {
		t.Fatalf("fresh read reported %d stale pages", stale)
	}
	if !st.LeaseFresh(0, 0, 1.2) {
		t.Fatal("lease not fresh right after contact")
	}
	if st.LeaseFresh(0, 0, 1.5) {
		t.Fatal("lease fresh at expiry boundary")
	}
}

// The fetch-race guard: a commit between request send and reply apply must
// leave the fetched page uncached.
func TestRegisterFetchCommitSeqGuard(t *testing.T) {
	st := newTestState(t, 2, 0.5)
	seq := st.CommitSeq(0)
	// A write by client 1 commits while client 0's fetch is in flight.
	st.AcquireWriteSlot(0)
	w := st.BeginWrite(0, 0, 2, 1, 1.0)
	st.CommitWrite(w)
	st.SyncContact(0, st.Home(0), 0.9)
	st.RegisterFetch(0, 0, 0, seq)
	if st.ClientValid(0, 0, 0) {
		t.Fatal("raced fetch was cached despite an intervening commit")
	}
	if st.Summary().Writes.FetchRaces != 1 {
		t.Fatalf("FetchRaces = %d, want 1", st.Summary().Writes.FetchRaces)
	}
}

// A fault past the cacheable prefix fetches a page the client has no slot
// for: RegisterFetch caches and registers nothing, and the fetch is no race.
func TestRegisterFetchPastPrefix(t *testing.T) {
	st := newTestState(t, 2, 1.0)
	st.SyncContact(0, st.Home(0), 0.0)
	before := fmt.Sprint(st.clients[0].cache, st.servers[0].cached[0])
	for pg := 5; pg < st.RelPages(0); pg++ {
		st.RegisterFetch(0, 0, pg, st.CommitSeq(0))
	}
	if after := fmt.Sprint(st.clients[0].cache, st.servers[0].cached[0]); after != before {
		t.Fatalf("fetches past the prefix changed the cache state:\n%s\nwant\n%s", after, before)
	}
	if got := st.Summary().Writes.FetchRaces; got != 0 {
		t.Fatalf("FetchRaces = %d, want 0", got)
	}
}

// A fetch whose reply applies while a write is still IN FLIGHT on the same
// relation must also be left uncached: the reply may carry pages already
// dirtied on the server disk, would be stamped with the pre-commit version,
// and — registered only after BeginWrite computed the write's invalidation
// set — would never be invalidated when the write commits. This is the race
// the commit-sequence guard alone cannot see (the sequence bumps only at
// commit time).
func TestRegisterFetchInFlightWriteGuard(t *testing.T) {
	st := newTestState(t, 2, 0.5)
	// Client 1 opens a write on rel 0; pages dirtied, commit still pending.
	st.AcquireWriteSlot(0)
	w := st.BeginWrite(0, 0, 2, 1, 1.0)
	// Client 0's fetch reply applies mid-write: commitSeq is unchanged, so
	// only the write-slot check can refuse it.
	st.SyncContact(0, st.Home(0), 1.1)
	st.RegisterFetch(0, 0, 0, st.CommitSeq(0))
	if st.ClientValid(0, 0, 0) {
		t.Fatal("fetch cached while a write was in flight on the relation")
	}
	if got := st.Summary().Writes.FetchRaces; got != 1 {
		t.Fatalf("FetchRaces = %d, want 1", got)
	}
	st.CommitWrite(w)
	// With the slot free and the sequence captured after the commit, the
	// refetch caches normally — and at the committed version.
	fetchAll(st, 0, 1.2)
	if n := validPages(st, 0, 0, 5); n != 5 {
		t.Fatalf("post-commit refetch cached %d of 5 pages", n)
	}
	if stale := readPages(st, 0, 0, 5); stale != 0 {
		t.Fatalf("post-commit refetch reads %d stale pages", stale)
	}
}

// A committed write invalidates fresh leaseholders through the pending set;
// the staleness oracle flags a read that skips the protocol.
func TestWriteInvalidationAndOracle(t *testing.T) {
	st := newTestState(t, 2, 1.0)
	fetchAll(st, 0, 0.0) // client 0 caches prefix, lease until 1.0
	fetchAll(st, 1, 0.0)

	st.AcquireWriteSlot(0)
	w := st.BeginWrite(0, 1, 2, 1, 0.5) // client 1 dirties pages 1,2
	if !reflect.DeepEqual(w.Pending, []int{0}) {
		t.Fatalf("Pending = %v, want [0] (writer excluded, fresh leaseholder included)", w.Pending)
	}
	if w.Deadline != 1.0 {
		t.Fatalf("Deadline = %g, want lease expiry 1.0", w.Deadline)
	}

	// Callback delivered: client 0 drops the dirty pages, write unblocks.
	if dropped := st.DeliverInvalidation(0, st.Home(0)); dropped != 2 {
		t.Fatalf("DeliverInvalidation dropped %d pages, want 2", dropped)
	}
	if !w.Done() {
		t.Fatal("write still pending after delivery")
	}
	st.CommitWrite(w)

	if st.ClientValid(0, 0, 1) || st.ClientValid(0, 0, 2) {
		t.Fatal("invalidated pages still valid at client 0")
	}
	if !st.ClientValid(0, 0, 0) {
		t.Fatal("untouched page 0 was dropped")
	}
	if n := validPages(st, 0, 0, 5); n != 3 {
		t.Fatalf("%d prefix pages valid after invalidation, want 3", n)
	}

	// The writer dropped its own copies of the dirtied pages at BeginWrite,
	// so no query it runs can read them between the commit and the reply;
	// its other cached pages survive, and the reply sync changes nothing.
	if st.ClientValid(1, 0, 1) || st.ClientValid(1, 0, 2) {
		t.Fatal("writer's dirty pages still valid after BeginWrite")
	}
	if !st.ClientValid(1, 0, 0) {
		t.Fatal("writer's untouched page 0 was dropped")
	}
	st.SyncContact(1, st.Home(0), 0.6)
	if st.ClientValid(1, 0, 1) || !st.ClientValid(1, 0, 0) {
		t.Fatal("reply sync changed the writer's cache")
	}

	// Oracle: force the unsound read the protocol just prevented.
	st.clients[0].cache[0].valid[1] = true
	if !st.RecordCachedRead(0, 0, 1) {
		t.Fatal("oracle missed a stale read")
	}
	st.NoteCommittedReads(1)
	o := st.Oracle()
	if o.StaleReads != 1 || o.StaleCommittedReads != 1 {
		t.Fatalf("oracle counters = %+v, want 1 stale / 1 committed", o)
	}
}

// An expired leaseholder gets no callback; its unsynced marks are applied by
// the sync step of its next contact, before the lease is renewed.
func TestExpiredLeaseSyncsOnContact(t *testing.T) {
	st := newTestState(t, 2, 1.0)
	fetchAll(st, 0, 0.0) // lease until 1.0

	st.AcquireWriteSlot(0)
	w := st.BeginWrite(0, 0, 1, 1, 2.0) // client 0's lease already expired
	if len(w.Pending) != 0 {
		t.Fatalf("expired leaseholder in pending set: %v", w.Pending)
	}
	st.CommitWrite(w)

	// Client 0 must not serve cached pages (lease expired)...
	if st.LeaseFresh(0, 0, 2.5) {
		t.Fatal("expired lease reported fresh")
	}
	// ...and its renewal contact applies the invalidation first.
	st.SyncContact(0, st.Home(0), 2.5)
	if st.ClientValid(0, 0, 0) {
		t.Fatal("stale page survived the renewal sync")
	}
	if !st.LeaseFresh(0, 0, 3.0) {
		t.Fatal("lease not renewed by contact")
	}
	if stale := readPages(st, 0, 1, 4); stale != 0 {
		t.Fatalf("post-sync read saw %d stale pages", stale)
	}
}

// Client crash: epoch bump discards the cache; the server drops its stale
// registrations at the next contact and acks writes owed by the old epoch.
func TestClientCrashEpochDiscard(t *testing.T) {
	st := newTestState(t, 2, 1.0)
	fetchAll(st, 0, 0.0)
	st.CrashClient(0)
	if st.ClientUp(0) {
		t.Fatal("client up after crash")
	}

	// A write begins while client 0 is down: its (still fresh) lease makes it
	// pending, but no ack will come.
	st.AcquireWriteSlot(0)
	w := st.BeginWrite(0, 0, 2, 1, 0.5)
	if !reflect.DeepEqual(w.Pending, []int{0}) {
		t.Fatalf("Pending = %v, want [0]", w.Pending)
	}

	st.RestartClient(0)
	if st.Epoch(0) != 1 {
		t.Fatalf("epoch = %d after restart, want 1", st.Epoch(0))
	}
	if st.ClientValid(0, 0, 0) {
		t.Fatal("cache survived the crash")
	}
	// First contact under the new epoch: the server reconciles, clearing the
	// old registrations and acking the write.
	st.SyncContact(0, st.Home(0), 0.8)
	if !w.Done() {
		t.Fatal("write still waiting on a recovered client")
	}
	st.CommitWrite(w)
}

// Server crash: tables wiped, active writes abort; after restart the write
// grace holds for one lease duration and clients discard on the new
// incarnation at their next contact.
func TestServerCrashIncarnationAndGrace(t *testing.T) {
	st := newTestState(t, 2, 1.0)
	fetchAll(st, 0, 0.0)

	st.AcquireWriteSlot(0)
	w := st.BeginWrite(0, 0, 1, 1, 0.2)
	st.CrashServer(0)
	if !w.Aborted() || !w.Done() {
		t.Fatalf("write not aborted by server crash (aborted=%v pending=%v)", w.Aborted(), w.Pending)
	}
	st.AbortWrite(w)
	if st.WriteBusy(0) {
		t.Fatal("write slot leaked through the abort")
	}

	st.RestartServer(0, 5.0)
	if got := st.WriteGraceRemaining(0, 5.25); got != 0.75 {
		t.Fatalf("WriteGraceRemaining = %g, want 0.75", got)
	}
	if got := st.WriteGraceRemaining(0, 6.5); got != 0 {
		t.Fatalf("WriteGraceRemaining after window = %g, want 0", got)
	}

	// Client 0 still holds its (pre-crash) cache; its next contact sees the
	// new incarnation and discards everything homed at server 0.
	if !st.ClientValid(0, 0, 0) {
		t.Fatal("client cache should survive until the next contact")
	}
	st.SyncContact(0, 0, 6.0)
	if st.ClientValid(0, 0, 0) {
		t.Fatal("cache survived an incarnation change")
	}
}

// Under infinite leases (read-only mode) a server restart must NOT discard
// client caches — that is the engine's default static cache.
func TestInfiniteLeaseKeepsCacheAcrossServerRestart(t *testing.T) {
	st := newTestState(t, 1, 0)
	fetchAll(st, 0, 0.0)
	st.CrashServer(0)
	st.RestartServer(0, 2.0)
	st.SyncContact(0, 0, 3.0)
	if !st.ClientValid(0, 0, 0) {
		t.Fatal("infinite-lease cache discarded by server restart")
	}
	if !st.LeaseFresh(0, 0, 1e12) {
		t.Fatal("infinite lease expired")
	}
}

// The write slot is a FIFO: waiters wake in arrival order.
func TestWriteSlotFIFO(t *testing.T) {
	st := newTestState(t, 1, 1.0)
	st.AcquireWriteSlot(0)
	var order []int
	st.AwaitWriteSlot(0, func() { order = append(order, 1) })
	st.AwaitWriteSlot(0, func() { order = append(order, 2) })
	w := st.BeginWrite(0, 0, 1, 0, 0.1)
	st.CommitWrite(w)
	if !reflect.DeepEqual(order, []int{1}) {
		t.Fatalf("after first release: woke %v, want [1]", order)
	}
	st.AcquireWriteSlot(0)
	st.releaseWriteSlot(0)
	if !reflect.DeepEqual(order, []int{1, 2}) {
		t.Fatalf("after second release: woke %v, want [1 2]", order)
	}
	if st.CommittedVersion(0, 0) != 1 {
		t.Fatalf("committed version = %d, want 1", st.CommittedVersion(0, 0))
	}
}

// A woken writer that bails out without acquiring the slot must pass the
// wake-up along, or the remaining FIFO waiters sleep forever.
func TestAbandonWriteSlot(t *testing.T) {
	st := newTestState(t, 1, 1.0)
	st.AcquireWriteSlot(0)
	var order []int
	st.AwaitWriteSlot(0, func() { order = append(order, 1) })
	st.AwaitWriteSlot(0, func() { order = append(order, 2) })
	st.releaseWriteSlot(0) // wakes waiter 1 only
	if !reflect.DeepEqual(order, []int{1}) {
		t.Fatalf("after release: woke %v, want [1]", order)
	}
	st.AbandonWriteSlot(0) // waiter 1 bailed; waiter 2 must wake
	if !reflect.DeepEqual(order, []int{1, 2}) {
		t.Fatalf("after abandon: woke %v, want [1 2]", order)
	}
	st.AcquireWriteSlot(0)
	st.AwaitWriteSlot(0, func() { order = append(order, 3) })
	st.AbandonWriteSlot(0) // slot held: must not wake anyone
	if len(order) != 2 {
		t.Fatal("AbandonWriteSlot woke a waiter while the slot was held")
	}
}

func TestSummaryShape(t *testing.T) {
	st := newTestState(t, 3, 0.5)
	fetchAll(st, 2, 0.0)
	readPages(st, 2, 0, 3)
	sum := st.Summary()
	if len(sum.PerClient) != 3 {
		t.Fatalf("PerClient has %d entries, want 3", len(sum.PerClient))
	}
	if sum.PerClient[2].CacheHitPages != 3 {
		t.Fatalf("client 2 CacheHitPages = %d, want 3", sum.PerClient[2].CacheHitPages)
	}
	if sum.Oracle.CachedReads != 3 || sum.Oracle.StaleReads != 0 {
		t.Fatalf("oracle = %+v", sum.Oracle)
	}
}
