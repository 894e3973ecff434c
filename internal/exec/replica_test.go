package exec

import (
	"reflect"
	"runtime"
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/coherence"
	"hybridship/internal/faults"
	"hybridship/internal/plan"
	"hybridship/internal/sim"
	"hybridship/internal/workload"
)

// replicatedChainConfig builds chainConfig's n-way chain with every relation
// homed on server 0 and replicated onto rf-1 of the other servers.
func replicatedChainConfig(t testing.TB, n, servers, rf int, sel workload.Selectivity) Config {
	t.Helper()
	cat, err := workload.BuildCatalog(4096, servers, workload.PlaceRoundRobin(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.ReplicateAll(rf, 12345); err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.MaxAlloc = true
	return Config{
		Params:  params,
		Catalog: cat,
		Query:   workload.ChainQuery(n, sel),
		Next:    workload.Next(sel),
		Seed:    1,
	}
}

// TestCrashRecoveryInsideBackoffWindow pins the per-attempt liveness
// re-check: a crash whose restart lands inside one query's backoff window
// must be survivable with a retry budget far too small to outlast the old
// "wait out a full MTTR" behavior. Site liveness is consulted at every
// rebind, so the first attempt after the restart binds and completes.
func TestCrashRecoveryInsideBackoffWindow(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	cfg.Faults = &faults.Config{
		Seed:        21,
		MaxRetries:  6,
		BackoffBase: 0.1,
		BackoffMax:  0.2,
		// Down for 0.25s: roughly one or two backoff sleeps, so the restart
		// happens between attempts of the same query.
		Script: []faults.Event{{At: 1.0, Kind: faults.SiteCrash, Site: 0, Duration: 0.25}},
	}
	res, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping))
	if err != nil {
		t.Fatal(err)
	}
	if want := workload.ExpectedResult(2, workload.Moderate); res.ResultTuples != want {
		t.Errorf("result tuples = %d, want %d", res.ResultTuples, want)
	}
	if res.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1 (the crash must have aborted an attempt)", res.Retries)
	}
	if res.ReplicaFailovers != 0 {
		t.Errorf("ReplicaFailovers = %d, want 0 on an unreplicated catalog", res.ReplicaFailovers)
	}
}

// TestReplicaFailoverServesFromSurvivor is the replication acceptance
// scenario: the primary dies for good, the retry loop re-binds the scans to
// the surviving replica immediately — no backoff, since the new binding no
// longer touches the dead site — and the query completes with the fault-free
// answer.
func TestReplicaFailoverServesFromSurvivor(t *testing.T) {
	cfg := replicatedChainConfig(t, 2, 2, 2, workload.Moderate)
	cfg.Faults = &faults.Config{
		Seed:   7,
		Script: []faults.Event{{At: 0.5, Kind: faults.SiteCrash, Site: 0}}, // permanent
	}
	res, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping))
	if err != nil {
		t.Fatal(err)
	}
	if want := workload.ExpectedResult(2, workload.Moderate); res.ResultTuples != want {
		t.Errorf("result tuples = %d, want %d", res.ResultTuples, want)
	}
	if res.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1", res.Retries)
	}
	if res.ReplicaFailovers < 1 {
		t.Errorf("ReplicaFailovers = %d, want >= 1 (scans must have moved to the replica)", res.ReplicaFailovers)
	}
	if res.BackoffTime != 0 {
		t.Errorf("BackoffTime = %g, want 0: a failover to a live replica retries immediately", res.BackoffTime)
	}

	// Same crash without the replica: the query is lost.
	solo := chainConfig(t, 2, 1, workload.Moderate, true)
	solo.Faults = &faults.Config{
		Seed:       7,
		MaxRetries: 3,
		Script:     []faults.Event{{At: 0.5, Kind: faults.SiteCrash, Site: 0}},
	}
	if _, err := Run(solo, annotate(leftDeepChain(2), plan.QueryShipping)); err == nil {
		t.Error("unreplicated control run survived a permanent crash without a cache")
	}
}

// TestWarmupDeprioritizesRestartedCopy drives the recovery rule. The
// primary crashes and restarts cold; the replica that took over then
// crashes too. The next rebind has the choice the rule exists for: the
// restarted-but-warming primary versus the untouched third copy. With
// WarmupDelay covering the run it must pick the warm copy (one more
// failover); without it, the primary.
func TestWarmupDeprioritizesRestartedCopy(t *testing.T) {
	run := func(warmup float64) Result {
		cfg := replicatedChainConfig(t, 2, 3, 1, workload.Moderate)
		for i := 0; i < 2; i++ {
			// Pin the copy order so the first failover lands on server 1.
			if err := cfg.Catalog.SetCopies(workload.RelName(i), []catalog.SiteID{0, 1, 2}); err != nil {
				t.Fatal(err)
			}
		}
		cfg.Faults = &faults.Config{
			Seed:        13,
			WarmupDelay: warmup,
			Script: []faults.Event{
				{At: 0.2, Kind: faults.SiteCrash, Site: 0, Duration: 0.1}, // restart at 0.3, cold
				{At: 0.4, Kind: faults.SiteCrash, Site: 1, Duration: 5},   // kill the takeover copy
			},
		}
		res, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping))
		if err != nil {
			t.Fatal(err)
		}
		if want := workload.ExpectedResult(2, workload.Moderate); res.ResultTuples != want {
			t.Fatalf("result tuples = %d, want %d", res.ResultTuples, want)
		}
		return res
	}
	warm := run(1000) // restarted primary stays cold for the whole run
	cold := run(0)
	if warm.ReplicaFailovers <= cold.ReplicaFailovers {
		t.Errorf("ReplicaFailovers = %d with warm-up vs %d without, want more: the warming primary must be passed over for the warm third copy",
			warm.ReplicaFailovers, cold.ReplicaFailovers)
	}
	if reflect.DeepEqual(warm, cold) {
		t.Error("WarmupDelay had no effect on a crash-restart run with a replica")
	}
}

// TestCoherentCacheOverReplicas runs a data-shipping plan over a half-cached
// RF=2 catalog whose home server dies for good mid-query: the client cache
// serves the cached prefix and the page faults fail over to the replica. A
// nil Coherence must be exactly the explicit one-client, infinite-lease
// cache, and a two-client read-only fleet over the same catalog must answer
// every query exactly with no stale committed read.
func TestCoherentCacheOverReplicas(t *testing.T) {
	config := func(coh *coherence.Config) Config {
		cfg := replicatedChainConfig(t, 2, 2, 2, workload.Moderate)
		if err := workload.CacheAllFraction(cfg.Catalog, 0.5); err != nil {
			t.Fatal(err)
		}
		cfg.Faults = &faults.Config{
			Seed:   7,
			Script: []faults.Event{{At: 0.5, Kind: faults.SiteCrash, Site: 0}}, // permanent
		}
		cfg.Coherence = coh
		return cfg
	}
	root := func() *plan.Node { return annotate(leftDeepChain(2), plan.DataShipping) }
	want := workload.ExpectedResult(2, workload.Moderate)

	def, err := Run(config(nil), root())
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(config(&coherence.Config{NumClients: 1}), root())
	if err != nil {
		t.Fatal(err)
	}
	if def.ResultTuples != want {
		t.Fatalf("result tuples = %d, want %d", def.ResultTuples, want)
	}
	if def.ReplicaFailovers < 1 {
		t.Fatalf("ReplicaFailovers = %d, want >= 1 (faults must move to the replica)", def.ReplicaFailovers)
	}
	if o := one.Coherence.Oracle; o.CachedReads == 0 || o.StaleCommittedReads != 0 {
		t.Fatalf("oracle = %+v, want cached reads and no stale committed read", o)
	}
	one.Coherence = nil
	if !reflect.DeepEqual(def, one) {
		t.Fatalf("nil Coherence diverged from {NumClients: 1}:\n got %+v\nwant %+v", def, one)
	}

	ses, err := NewSession(config(&coherence.Config{NumClients: 2}), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := ses.Bind(root())
	if err != nil {
		t.Fatal(err)
	}
	var got [2]QueryResult
	var errs [2]error
	for c := range got {
		ses.Simulator().Spawn("driver", func(p *sim.Proc) {
			got[c], errs[c] = ses.Execute(p, c, bound, QueryOpts{Client: c})
		})
	}
	ses.Run()
	failovers := int64(0)
	for c := range got {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		if got[c].ResultTuples != want {
			t.Fatalf("client %d: result tuples = %d, want %d", c, got[c].ResultTuples, want)
		}
		failovers += got[c].ReplicaFailovers
	}
	if failovers < 1 {
		t.Fatal("no fleet query failed over to the replica")
	}
	sum := ses.Coherence().Summary()
	if sum.Oracle.StaleCommittedReads != 0 {
		t.Fatalf("oracle = %+v, want no stale committed read", sum.Oracle)
	}
	for c, cs := range sum.PerClient {
		if cs.CacheHitPages == 0 {
			t.Fatalf("client %d read nothing from its cache", c)
		}
	}
}

// TestReplicatedFaultedRunDeterministic extends the seed-discipline
// regression to replicated execution: stochastic crashes over an RF=2
// catalog — failovers, warm-ups, immediate retries and all — must be a pure
// function of the seed, independent of host parallelism.
func TestReplicatedFaultedRunDeterministic(t *testing.T) {
	run := func() Result {
		cfg := replicatedChainConfig(t, 2, 2, 2, workload.Moderate)
		cfg.Faults = &faults.Config{
			Seed:        5,
			SiteMTBF:    2,
			SiteMTTR:    1,
			WarmupDelay: 0.5,
		}
		res, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	old := runtime.GOMAXPROCS(1)
	ref := run()
	runtime.GOMAXPROCS(8)
	got := run()
	runtime.GOMAXPROCS(old)
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("replicated faulted Result diverged across GOMAXPROCS:\n got %+v\nwant %+v", got, ref)
	}
	if ref.Retries < 1 {
		t.Errorf("Retries = %d; the MTBF is too long to exercise the failover path", ref.Retries)
	}
}

// TestWarmupInertAtRF1 pins the opt-in invariant from the other side: on an
// unreplicated catalog a nonzero WarmupDelay must not change a single bit of
// a faulted run — a warming site with no alternative copy is used anyway.
func TestWarmupInertAtRF1(t *testing.T) {
	run := func(warmup float64) Result {
		cfg := chainConfig(t, 2, 1, workload.Moderate, true)
		cfg.Faults = &faults.Config{
			Seed:        5,
			SiteMTBF:    3,
			SiteMTTR:    1,
			WarmupDelay: warmup,
		}
		res, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if base, warmed := run(0), run(2.5); !reflect.DeepEqual(base, warmed) {
		t.Errorf("WarmupDelay changed an unreplicated run:\n got %+v\nwant %+v", warmed, base)
	}
}

// TestReplicaRebindZeroAlloc pins the re-binding hot path: after the first
// attempt warms the engine's scratch, a full rebind over a replicated
// catalog with a dead primary allocates nothing.
func TestReplicaRebindZeroAlloc(t *testing.T) {
	e, bp := rebindFixture(t)
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := e.rebind(bp); !ok {
			t.Fatal("rebind not runnable with a live replica")
		}
	}); n != 0 {
		t.Errorf("rebind allocates %v per call, want 0", n)
	}
}

// rebindFixture builds a warmed engine over an RF=3 catalog with the primary
// down and half-cached relations (so the client-source redirection path runs
// too), plus a bound plan to re-bind.
func rebindFixture(t testing.TB) (*engine, *BoundPlan) {
	t.Helper()
	cfg := replicatedChainConfig(t, 2, 3, 3, workload.Moderate)
	if err := workload.CacheAllFraction(cfg.Catalog, 0.5); err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &faults.Config{Seed: 1, Script: []faults.Event{{At: 1e9, Kind: faults.SiteCrash, Site: 0, Duration: 1}}}
	bp := mustBind(t, &cfg, annotate(leftDeepChain(2), plan.QueryShipping))
	s, _, err := newSession(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := s.e
	e.servers[0].up = false
	e.rebind(bp) // warm the scratch slices
	return e, bp
}

// BenchmarkReplicaRebindFaults measures the failover re-binding hot path —
// what every retry pays before its attempt is built. Its 0 allocs/op is
// gated by TestReplicaRebindZeroAlloc.
func BenchmarkReplicaRebindFaults(b *testing.B) {
	e, bp := rebindFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.rebind(bp); !ok {
			b.Fatal("rebind not runnable with a live replica")
		}
	}
}
