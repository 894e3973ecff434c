package exec

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/coherence"
	"hybridship/internal/disk"
	"hybridship/internal/faults"
	"hybridship/internal/plan"
	"hybridship/internal/sim"
	"hybridship/internal/workload"
)

// cohConfig is chainConfig with a half-cached catalog and coherence enabled.
func cohConfig(t testing.TB, n, servers, clients int, lease float64) Config {
	t.Helper()
	cfg := chainConfig(t, n, servers, workload.Moderate, true)
	if err := workload.CacheAllFraction(cfg.Catalog, 0.5); err != nil {
		t.Fatal(err)
	}
	cfg.Coherence = &coherence.Config{NumClients: clients, LeaseDuration: lease}
	return cfg
}

// TestCoherenceIdentityFaultFree pins the nil-default contract: a nil
// Config.Coherence is the explicit single-client, infinite-lease config —
// same response time, same traffic, same per-site disk counters — and only
// the explicit config reports coherence counters.
func TestCoherenceIdentityFaultFree(t *testing.T) {
	for _, pol := range []plan.Policy{plan.QueryShipping, plan.DataShipping} {
		defCfg := chainConfig(t, 4, 2, workload.Moderate, true)
		if err := workload.CacheAllFraction(defCfg.Catalog, 0.5); err != nil {
			t.Fatal(err)
		}
		def, err := Run(defCfg, annotate(leftDeepChain(4), pol))
		if err != nil {
			t.Fatal(err)
		}
		coh, err := Run(cohConfig(t, 4, 2, 1, 0), annotate(leftDeepChain(4), pol))
		if err != nil {
			t.Fatal(err)
		}
		sum := coh.Coherence
		if sum == nil {
			t.Fatal("coherence run carries no summary")
		}
		if sum.Oracle.StaleReads != 0 {
			t.Fatalf("oracle = %+v, want zero stale", sum.Oracle)
		}
		if pol == plan.DataShipping && sum.Oracle.CachedReads == 0 {
			// Only client-bound scans touch the client cache; QS reads at
			// the servers.
			t.Fatal("data-shipping run recorded no cached reads")
		}
		if sum.PerClient[0].LeaseRenewals != 0 {
			t.Fatalf("infinite leases took %d renewals", sum.PerClient[0].LeaseRenewals)
		}
		if def.Coherence != nil {
			t.Fatal("nil-Coherence run reports coherence counters")
		}
		coh.Coherence = nil
		if !reflect.DeepEqual(coh, def) {
			t.Fatalf("policy %v: explicit one-client run diverged from the nil default:\n got %+v\nwant %+v", pol, coh, def)
		}
	}
}

// TestCoherenceIdentityUnderFaults extends the nil-default contract to a
// faulted run: a server crash with recovery exercises the coherence
// crash/restart hooks (table wipe, incarnation bump, zero-length grace), and
// the explicit config, which also registers client fault hooks, must still
// match the nil default when no client fault is scheduled.
func TestCoherenceIdentityUnderFaults(t *testing.T) {
	script := []faults.Event{{At: 0.5, Kind: faults.SiteCrash, Site: 0, Duration: 2.0}}
	defCfg := chainConfig(t, 2, 1, workload.Moderate, true)
	if err := workload.CacheAllFraction(defCfg.Catalog, 0.5); err != nil {
		t.Fatal(err)
	}
	defCfg.Faults = &faults.Config{Seed: 3, Script: script}
	def, err := Run(defCfg, annotate(leftDeepChain(2), plan.QueryShipping))
	if err != nil {
		t.Fatal(err)
	}
	cohCfg := cohConfig(t, 2, 1, 1, 0)
	cohCfg.Faults = &faults.Config{Seed: 3, Script: script}
	coh, err := Run(cohCfg, annotate(leftDeepChain(2), plan.QueryShipping))
	if err != nil {
		t.Fatal(err)
	}
	if coh.Coherence.Oracle.StaleReads != 0 {
		t.Fatalf("oracle saw %d stale reads", coh.Coherence.Oracle.StaleReads)
	}
	coh.Coherence = nil
	if !reflect.DeepEqual(coh, def) {
		t.Fatalf("faulted one-client run diverged from the nil default:\n got %+v\nwant %+v", coh, def)
	}
}

// newCohSession builds a session over cohConfig for driver-process tests.
func newCohSession(t *testing.T, n, servers, clients int, lease float64, fc *faults.Config) *Session {
	t.Helper()
	cfg := cohConfig(t, n, servers, clients, lease)
	cfg.Faults = fc
	ses, err := NewSession(cfg, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ses
}

// TestUpdateInvalidatesAndRefetch is the end-to-end protocol round trip:
// client 0 reads (caching the prefix under a lease), client 1 updates two
// prefix pages (callback invalidation to client 0), client 0 reads again
// (refetches exactly the invalidated pages). The oracle must stay clean.
func TestUpdateInvalidatesAndRefetch(t *testing.T) {
	ses := newCohSession(t, 2, 1, 2, 100.0, nil)
	root := annotate(leftDeepChain(2), plan.DataShipping)
	bound, err := ses.Bind(root)
	if err != nil {
		t.Fatal(err)
	}
	var (
		q1, q2 QueryResult
		up     UpdateResult
		errs   []error
	)
	ses.Simulator().Spawn("driver", func(p *sim.Proc) {
		var e1, e2, e3 error
		q1, e1 = ses.Execute(p, 0, bound, QueryOpts{Client: 0})
		up, e3 = ses.ExecuteUpdate(p, 1, workload.RelName(0), 0, 2)
		q2, e2 = ses.Execute(p, 1, bound, QueryOpts{Client: 0})
		errs = append(errs, e1, e3, e2)
	})
	ses.Run()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if want := workload.ExpectedResult(2, workload.Moderate); q1.ResultTuples != want || q2.ResultTuples != want {
		t.Fatalf("tuples = %d / %d, want %d", q1.ResultTuples, q2.ResultTuples, want)
	}
	if !up.Committed || up.PagesDirtied != 2 {
		t.Fatalf("update = %+v, want committed with 2 pages dirtied", up)
	}
	if up.Invalidations != 1 {
		t.Fatalf("update shipped %d invalidations, want 1 (client 0 held the lease)", up.Invalidations)
	}
	if up.BoundExpired {
		t.Fatal("update hit the lease bound although the callback was deliverable")
	}
	sum := ses.Coherence().Summary()
	c0 := sum.PerClient[0]
	if c0.InvalidationsIn != 1 || c0.PagesInvalidated != 2 {
		t.Fatalf("client 0 callbacks = %+v, want 1 delivery invalidating 2 pages", c0)
	}
	if c0.CacheMissPages != 2 {
		t.Fatalf("client 0 refetched %d pages, want exactly the 2 invalidated", c0.CacheMissPages)
	}
	if c0.LeaseRenewals == 0 {
		t.Fatal("finite-lease reads took no renewal round trip")
	}
	if c0.CallbackMsgs != 2 { // invalidation + ack
		t.Fatalf("client 0 callback messages = %d, want 2", c0.CallbackMsgs)
	}
	if sum.Writes.Committed != 1 || sum.Writes.InvalidationsDelivered != 1 {
		t.Fatalf("write stats = %+v", sum.Writes)
	}
	if sum.Oracle.StaleReads != 0 || sum.Oracle.StaleCommittedReads != 0 {
		t.Fatalf("oracle = %+v, want zero stale", sum.Oracle)
	}
	// The second query must have re-read the prefix: cache hits from both
	// queries plus the two refetched pages.
	if c0.CacheHitPages == 0 {
		t.Fatal("no cache hits recorded")
	}
}

// TestUpdateWaitsOutCrashedClientLease: a crashed leaseholder cannot ack its
// callback, so the writer commits exactly at the lease bound — bounded
// staleness instead of an unbounded stall.
func TestUpdateWaitsOutCrashedClientLease(t *testing.T) {
	fc := &faults.Config{
		Seed:   7,
		Script: []faults.Event{{At: 50, Kind: faults.ClientCrash, Site: 0}}, // permanent
	}
	ses := newCohSession(t, 2, 1, 2, 100.0, fc)
	root := annotate(leftDeepChain(2), plan.DataShipping)
	bound, err := ses.Bind(root)
	if err != nil {
		t.Fatal(err)
	}
	var (
		up   UpdateResult
		errs []error
	)
	ses.Simulator().Spawn("driver", func(p *sim.Proc) {
		// Client 0 reads first, renewing its lease (valid until read time
		// + 100); then it crashes at t=50 and the update at t=60 finds its
		// lease still fresh but its callback undeliverable.
		_, e1 := ses.Execute(p, 0, bound, QueryOpts{Client: 0})
		if dt := 60 - ses.Now(); dt > 0 {
			p.Hold(dt)
		}
		var e2 error
		up, e2 = ses.ExecuteUpdate(p, 1, workload.RelName(0), 0, 1)
		errs = append(errs, e1, e2)
	})
	ses.Run()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !up.Committed {
		t.Fatalf("update = %+v, want committed", up)
	}
	if !up.BoundExpired {
		t.Fatal("update did not report committing at the lease bound")
	}
	if up.WaitTime <= 0 {
		t.Fatalf("writer wait = %g, want > 0 (waiting out the lease)", up.WaitTime)
	}
	sum := ses.Coherence().Summary()
	if sum.Writes.InvalidationsLost != 1 {
		t.Fatalf("invalidations lost = %d, want 1", sum.Writes.InvalidationsLost)
	}
	if sum.Writes.BoundExpiredCommits != 1 {
		t.Fatalf("bound-expired commits = %d, want 1", sum.Writes.BoundExpiredCommits)
	}
	if sum.Oracle.StaleReads != 0 {
		t.Fatalf("oracle saw %d stale reads", sum.Oracle.StaleReads)
	}
}

// TestClientCrashAbortsQueryAndDiscardsCache: a client crash aborts the
// in-flight query with ErrClientDown; after recovery the new epoch has
// discarded the cache, so the next query refetches the whole prefix.
func TestClientCrashAbortsQueryAndDiscardsCache(t *testing.T) {
	fc := &faults.Config{
		Seed:   7,
		Script: []faults.Event{{At: 0.2, Kind: faults.ClientCrash, Site: 0, Duration: 5.0}},
	}
	ses := newCohSession(t, 2, 1, 1, 50.0, fc)
	root := annotate(leftDeepChain(2), plan.DataShipping)
	bound, err := ses.Bind(root)
	if err != nil {
		t.Fatal(err)
	}
	var (
		firstErr  error
		second    QueryResult
		secondErr error
	)
	ses.Simulator().Spawn("driver", func(p *sim.Proc) {
		_, firstErr = ses.Execute(p, 0, bound, QueryOpts{Client: 0})
		if dt := 6.0 - ses.Now(); dt > 0 {
			p.Hold(dt) // until after the client restarts
		}
		second, secondErr = ses.Execute(p, 1, bound, QueryOpts{Client: 0})
	})
	ses.Run()
	if !errors.Is(firstErr, ErrClientDown) {
		t.Fatalf("first query error = %v, want ErrClientDown", firstErr)
	}
	if secondErr != nil {
		t.Fatal(secondErr)
	}
	if want := workload.ExpectedResult(2, workload.Moderate); second.ResultTuples != want {
		t.Fatalf("post-recovery tuples = %d, want %d", second.ResultTuples, want)
	}
	st := ses.Coherence()
	if st.Epoch(0) != 1 {
		t.Fatalf("client epoch = %d, want 1 after one recovery", st.Epoch(0))
	}
	sum := st.Summary()
	if sum.PerClient[0].CacheMissPages == 0 {
		t.Fatal("recovered client refetched nothing: epoch discard did not happen")
	}
	if got := ses.FaultStats().ClientCrashes; got != 1 {
		t.Fatalf("injector client crashes = %d, want 1", got)
	}
	if sum.Oracle.StaleReads != 0 {
		t.Fatalf("oracle saw %d stale reads", sum.Oracle.StaleReads)
	}
}

// TestUpdateRejections: updates are refused under infinite leases (a crashed
// leaseholder could stall writers forever), on unknown relations, and out of
// range.
func TestUpdateRejections(t *testing.T) {
	ses := newCohSession(t, 2, 1, 1, 0, nil)
	ses.Simulator().Spawn("driver", func(p *sim.Proc) {
		if _, err := ses.ExecuteUpdate(p, 0, workload.RelName(0), 0, 1); err == nil {
			t.Error("update accepted under infinite leases")
		}
	})
	ses.Run()

	ses2 := newCohSession(t, 2, 1, 1, 1.0, nil)
	ses2.Simulator().Spawn("driver", func(p *sim.Proc) {
		if _, err := ses2.ExecuteUpdate(p, 0, "nosuchrel", 0, 1); err == nil {
			t.Error("update accepted on unknown relation")
		}
		if _, err := ses2.ExecuteUpdate(p, 0, workload.RelName(0), -1, 1); err == nil {
			t.Error("update accepted with negative page")
		}
		if _, err := ses2.ExecuteUpdate(p, 0, workload.RelName(0), 0, 1<<20); err == nil {
			t.Error("update accepted past the relation end")
		}
	})
	ses2.Run()
}

// TestCoherenceDeterministic: the full coherence scenario — finite leases,
// interleaved reads and updates, a client crash and a server crash — is
// bit-identical across repeated runs, summaries included.
func TestCoherenceDeterministic(t *testing.T) {
	scenario := func() (QueryResult, QueryResult, UpdateResult, *coherence.Summary) {
		fc := &faults.Config{
			Seed: 13,
			Script: []faults.Event{
				{At: 8, Kind: faults.ClientCrash, Site: 1, Duration: 4.0},
				{At: 20, Kind: faults.SiteCrash, Site: 0, Duration: 3.0},
			},
		}
		ses := newCohSession(t, 2, 2, 2, 5.0, fc)
		root := annotate(leftDeepChain(2), plan.QueryShipping)
		bound, err := ses.Bind(root)
		if err != nil {
			t.Fatal(err)
		}
		var (
			q1, q2 QueryResult
			up     UpdateResult
		)
		ses.Simulator().Spawn("driver", func(p *sim.Proc) {
			q1, _ = ses.Execute(p, 0, bound, QueryOpts{Client: 0})
			up, _ = ses.ExecuteUpdate(p, 1, workload.RelName(0), 0, 1)
			q2, _ = ses.Execute(p, 1, bound, QueryOpts{Client: 0})
		})
		ses.Run()
		return q1, q2, up, ses.Coherence().Summary()
	}
	r1a, r2a, upa, suma := scenario()
	for i := 0; i < 2; i++ {
		r1b, r2b, upb, sumb := scenario()
		if !reflect.DeepEqual(r1a, r1b) || !reflect.DeepEqual(r2a, r2b) || !reflect.DeepEqual(upa, upb) {
			t.Fatalf("run %d query/update results diverged", i+1)
		}
		if !reflect.DeepEqual(suma, sumb) {
			t.Fatalf("run %d summaries diverged:\n got %+v\nwant %+v", i+1, sumb, suma)
		}
	}
	if suma.Oracle.StaleReads != 0 || suma.Oracle.StaleCommittedReads != 0 {
		t.Fatalf("oracle = %+v, want zero stale", suma.Oracle)
	}
}

// TestWriterNeverServesOwnPreWritePages: client 0 updates page 20 of R0
// while its own query is scanning R0 through its cache, and client 1's query
// keeps the network and server busy, so the commit acknowledgement trails
// the commit long enough that the scan reaches page 20 in between (the
// writer starts at t=0.3844 s to land the scan in that window). The writer
// must not serve its pre-write copy from cache then: the staleness oracle
// stays at zero and the page is refetched.
func TestWriterNeverServesOwnPreWritePages(t *testing.T) {
	ses := newCohSession(t, 2, 1, 2, 100.0, nil)
	root := annotate(leftDeepChain(2), plan.DataShipping)
	bound, err := ses.Bind(root)
	if err != nil {
		t.Fatal(err)
	}
	var (
		up   UpdateResult
		errs []error
	)
	for c := 0; c < 2; c++ {
		c := c
		ses.Simulator().Spawn("reader", func(p *sim.Proc) {
			if _, err := ses.Execute(p, c, bound, QueryOpts{Client: c}); err != nil {
				errs = append(errs, err)
			}
		})
	}
	ses.Simulator().Spawn("writer", func(p *sim.Proc) {
		p.Hold(0.3844)
		var err error
		if up, err = ses.ExecuteUpdate(p, 0, workload.RelName(0), 20, 1); err != nil {
			errs = append(errs, err)
		}
	})
	ses.Run()
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	if !up.Committed {
		t.Fatalf("update did not commit: %+v", up)
	}
	sum := ses.Coherence().Summary()
	if sum.Oracle.StaleReads != 0 || sum.Oracle.StaleCommittedReads != 0 {
		t.Fatalf("oracle = %+v, want zero stale: the writer served its own pre-write page", sum.Oracle)
	}
	if sum.PerClient[0].CacheMissPages != 1 {
		t.Fatalf("client 0 refetched %d pages, want exactly the one it updated", sum.PerClient[0].CacheMissPages)
	}
}

// TestCoherenceCatalogOrderDiffersFromQuery: past binding the engine finds a
// relation's extents and coherence state by its RelID−1 and its tuple column
// by its query mask bit. A query that lists the relations in the reverse of
// catalog order makes the two differ for every relation; its run must give
// exact answers with a clean oracle, leave the update on the relation it
// named, and match, counter for counter, the run whose query lists them in
// catalog order. So must a run under the default one-client cache.
func TestCoherenceCatalogOrderDiffersFromQuery(t *testing.T) {
	config := func(reverse bool) Config {
		cfg := chainConfig(t, 2, 1, workload.HiSel, true)
		if reverse {
			slices.Reverse(cfg.Query.Relations)
		}
		// Unequal prefixes: one relation's coherence state read for the
		// other runs off its end.
		for i, frac := range []float64{0.5, 0.25} {
			if err := cfg.Catalog.SetCachedFraction(workload.RelName(i), frac); err != nil {
				t.Fatal(err)
			}
		}
		return cfg
	}
	def := func(reverse bool) Result {
		res, err := Run(config(reverse), annotate(leftDeepChain(2), plan.DataShipping))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if inOrder, reversed := def(false), def(true); !reflect.DeepEqual(reversed, inOrder) {
		t.Fatalf("query order changed the default-cache run:\nreversed %+v\nin order %+v", reversed, inOrder)
	}

	type outcome struct {
		Queries []QueryResult
		Update  UpdateResult
		Disk    map[catalog.SiteID]disk.Stats
		Summary *coherence.Summary
	}
	run := func(reverse bool) outcome {
		cfg := config(reverse)
		cfg.Coherence = &coherence.Config{NumClients: 2, LeaseDuration: 100}
		ses, err := NewSession(cfg, SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := ses.Bind(annotate(leftDeepChain(2), plan.DataShipping))
		if err != nil {
			t.Fatal(err)
		}
		qs, err := ses.Bind(annotate(leftDeepChain(2), plan.QueryShipping))
		if err != nil {
			t.Fatal(err)
		}
		var (
			out  outcome
			errs []error
		)
		ses.Simulator().Spawn("driver", func(p *sim.Proc) {
			read := func(qi, client int, bp *BoundPlan) {
				q, err := ses.Execute(p, qi, bp, QueryOpts{Client: client})
				out.Queries = append(out.Queries, q)
				errs = append(errs, err)
			}
			read(0, 0, ds)
			var err error
			out.Update, err = ses.ExecuteUpdate(p, 1, workload.RelName(0), 0, 2)
			errs = append(errs, err)
			read(1, 0, ds)
			read(2, 1, ds)
			read(3, 0, qs)
		})
		ses.Run()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		want := workload.ExpectedResult(2, workload.HiSel)
		for i, q := range out.Queries {
			if q.ResultTuples != want {
				t.Fatalf("reverse=%v: query %d returned %d tuples, want %d", reverse, i, q.ResultTuples, want)
			}
		}
		st := ses.Coherence()
		out.Summary, out.Disk = st.Summary(), ses.DiskStats()
		if o := out.Summary.Oracle; o.StaleReads != 0 || o.StaleCommittedReads != 0 {
			t.Fatalf("reverse=%v: oracle = %+v, want zero stale", reverse, o)
		}
		if !out.Update.Committed {
			t.Fatalf("reverse=%v: update did not commit: %+v", reverse, out.Update)
		}
		if miss := out.Summary.PerClient[0].CacheMissPages; miss != 2 {
			t.Fatalf("reverse=%v: client 0 refetched %d pages, want the 2 updated", reverse, miss)
		}
		r0, r1 := int(cfg.Catalog.ID(workload.RelName(0)))-1, int(cfg.Catalog.ID(workload.RelName(1)))-1
		for pg, v := range []int64{1, 1, 0} {
			if got := st.CommittedVersion(r0, pg); got != v {
				t.Fatalf("reverse=%v: %s page %d at version %d, want %d", reverse, workload.RelName(0), pg, got, v)
			}
		}
		for pg := 0; pg < cfg.Catalog.CachedPages(workload.RelName(1)); pg++ {
			if st.CommittedVersion(r1, pg) != 0 || !st.ClientValid(0, r1, pg) {
				t.Fatalf("reverse=%v: %s page %d changed or dropped from client 0's cache", reverse, workload.RelName(1), pg)
			}
		}
		return out
	}
	inOrder, reversed := run(false), run(true)
	if !reflect.DeepEqual(reversed, inOrder) {
		t.Fatalf("query order changed the coherent run:\nreversed %+v\nin order %+v", reversed, inOrder)
	}
}
