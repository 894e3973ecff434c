package serve

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"hybridship/internal/exec"
	"hybridship/internal/faults"
	"hybridship/internal/plan"
	"hybridship/internal/workload"
)

// annotate assigns the first allowed annotation per Table 1 (same helper the
// exec tests use; DS: all client, QS: scans primary / joins inner).
func annotate(root *plan.Node, pol plan.Policy) *plan.Node {
	root.Walk(func(n *plan.Node) {
		n.Ann = plan.AllowedAnnotations(n.Kind, pol)[0]
	})
	return root
}

// leftDeepChain builds display(((R0 ⋈ R1) ⋈ R2) ⋈ ...).
func leftDeepChain(n int) *plan.Node {
	tree := plan.NewScan(workload.RelName(0))
	for i := 1; i < n; i++ {
		tree = plan.NewJoin(tree, plan.NewScan(workload.RelName(i)))
	}
	return plan.NewDisplay(tree)
}

// testConfig builds a 2-way, 1-server, 50%-cached serving config (the chaos
// grid's workload) with two query classes: a DS-planned class and a
// QS-planned class, falling back to the QS plan under degradation.
func testConfig(t testing.TB) Config {
	t.Helper()
	cat, err := workload.BuildCatalog(4096, 1, workload.PlaceRoundRobin(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.CacheAllFraction(cat, 0.5); err != nil {
		t.Fatal(err)
	}
	params := exec.DefaultParams()
	params.MaxAlloc = true
	return Config{
		Exec: exec.Config{
			Params:  params,
			Catalog: cat,
			Query:   workload.ChainQuery(2, workload.Moderate),
			Next:    workload.Next(workload.Moderate),
			Seed:    1,
		},
		Seed:        1996,
		NumQueries:  24,
		ArrivalRate: 1.0,
		Deadline:    30,
		MPL:         3,
		QueueCap:    5,
		RetryBudget: 0.25,
		DegradeHi:   2, DegradeLo: 0,
		StaticHi: 4, StaticLo: 1,
		OptInst: 10e6,
		Classes: 2,
		FreshPlans: []*plan.Node{
			annotate(leftDeepChain(2), plan.DataShipping),
			annotate(leftDeepChain(2), plan.QueryShipping),
		},
		StaticPlan: annotate(leftDeepChain(2), plan.QueryShipping),
	}
}

func mustRun(t testing.TB, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServeCountersConsistent checks the accounting identities every run
// must satisfy: every arrival is rejected or admitted, every admission ends
// exactly one way, and every admission ran at exactly one level.
// TestPlanCacheKeepsEveryClass replays the inserts of two workers that miss
// class 0 together, the second before the first has finished charging
// OptInst: with room for every class, the duplicate insert must not evict
// a live class.
func TestPlanCacheKeepsEveryClass(t *testing.T) {
	c := make(planCache, 3)
	for _, class := range []int{1, 0, 0, 2} {
		c.insert(class)
	}
	for class := 0; class < 3; class++ {
		if !c.hit(class) {
			t.Errorf("class %d missing after inserts 1, 0, 0, 2", class)
		}
	}
}

func TestServeCountersConsistent(t *testing.T) {
	res := mustRun(t, testConfig(t))
	if got := int64(testConfig(t).NumQueries); res.Offered != got {
		t.Errorf("Offered = %d, want %d", res.Offered, got)
	}
	if res.Offered != res.RejectedRate+res.RejectedQueue+res.Admitted {
		t.Errorf("admission identity violated: %+v", res)
	}
	if res.Admitted != res.Completed+res.Expired+res.Failed {
		t.Errorf("outcome identity violated: %+v", res)
	}
	if res.Admitted != res.FreshServed+res.CachedServed+res.StaticServed {
		t.Errorf("level identity violated: %+v", res)
	}
	if res.Completed == 0 {
		t.Fatal("no query completed under a loose deadline")
	}
	if res.Goodput <= 0 || res.Elapsed <= 0 {
		t.Errorf("Goodput = %g, Elapsed = %g, want both positive", res.Goodput, res.Elapsed)
	}
	if res.P50RT <= 0 || res.P99RT < res.P50RT || res.MeanRT <= 0 {
		t.Errorf("degenerate RT stats: mean %g p50 %g p99 %g", res.MeanRT, res.P50RT, res.P99RT)
	}
}

// TestServeOverloadShedsAndDegrades: offered load far past capacity must
// fill the queue (rejections), trip the watermarks (degraded admissions,
// recorded transitions) and still complete what it admits.
func TestServeOverloadShedsAndDegrades(t *testing.T) {
	cfg := testConfig(t)
	cfg.NumQueries = 40
	cfg.ArrivalRate = 20
	res := mustRun(t, cfg)
	if res.RejectedQueue == 0 {
		t.Error("full queue never rejected at 10x the service rate")
	}
	if res.CachedServed+res.StaticServed == 0 {
		t.Error("no degraded admissions under sustained queue pressure")
	}
	if len(res.Transitions) == 0 {
		t.Error("no degradation transitions recorded")
	}
	for i, tr := range res.Transitions {
		if tr.From == tr.To {
			t.Errorf("transition %d is a self-loop: %+v", i, tr)
		}
	}
}

// TestServeRateLimiterSheds: a token bucket refilling far below the arrival
// rate must shed by rate, before the queue fills.
func TestServeRateLimiterSheds(t *testing.T) {
	cfg := testConfig(t)
	cfg.ArrivalRate = 10
	cfg.RateLimit = 0.5
	cfg.Burst = 2
	res := mustRun(t, cfg)
	if res.RejectedRate == 0 {
		t.Error("token bucket never shed at 20x its refill rate")
	}
}

// TestServeDisabledAdmitsEverything: the collapse baseline admits every
// arrival at the fresh level with no shedding.
func TestServeDisabledAdmitsEverything(t *testing.T) {
	cfg := testConfig(t)
	cfg.Disabled = true
	res := mustRun(t, cfg)
	if res.Admitted != res.Offered || res.RejectedRate+res.RejectedQueue != 0 {
		t.Errorf("disabled serving shed arrivals: %+v", res)
	}
	if res.FreshServed != res.Offered {
		t.Errorf("disabled serving degraded admissions: %+v", res)
	}
	if res.RetriesGranted != 0 {
		t.Errorf("disabled serving has a retry budget: %+v", res)
	}
}

// TestServeRetryBudgetBound: under repeated crashes the granted retries can
// never exceed the configured fraction of started queries — the structural
// guarantee that prevents retry storms.
func TestServeRetryBudgetBound(t *testing.T) {
	cfg := testConfig(t)
	cfg.NumQueries = 40
	cfg.ArrivalRate = 2
	cfg.Deadline = 12
	cfg.RetryBudget = 0.1
	cfg.Exec.Faults = &faults.Config{
		Seed:     11,
		SiteMTBF: 6, SiteMTTR: 1.5,
		FetchTimeout: 0.5, BackoffBase: 0.1, BackoffMax: 1,
	}
	res := mustRun(t, cfg)
	if res.Retries == 0 {
		t.Fatal("crash-heavy run recorded no failed rounds; the scenario is not exercising retries")
	}
	started := res.Admitted
	if float64(res.RetriesGranted) > cfg.RetryBudget*float64(started) {
		t.Errorf("RetriesGranted = %d exceeds budget %.0f%% of %d started",
			res.RetriesGranted, 100*cfg.RetryBudget, started)
	}
}

// TestServeBreakersOpenUnderCrashes: a crashing site must trip its breaker
// at least once in a crash-heavy run.
func TestServeBreakersOpenUnderCrashes(t *testing.T) {
	cfg := testConfig(t)
	cfg.NumQueries = 40
	cfg.ArrivalRate = 2
	cfg.Deadline = 12
	cfg.Breaker = BreakerParams{Threshold: 1, Cooldown: 0.5}
	cfg.Exec.Faults = &faults.Config{
		Seed:     11,
		SiteMTBF: 6, SiteMTTR: 1.5,
		FetchTimeout: 0.5, BackoffBase: 0.1, BackoffMax: 1,
	}
	res := mustRun(t, cfg)
	if res.BreakerOpens == 0 {
		t.Error("no breaker opened although the only server crashes repeatedly")
	}
}

// stormConfig is the interrupt-storm soak scenario: tight deadlines and
// frequent crashes, so nearly every query is torn down mid-flight through
// the kernel's interrupt machinery.
func stormConfig(t testing.TB) Config {
	cfg := testConfig(t)
	cfg.NumQueries = 60
	cfg.ArrivalRate = 6
	cfg.Deadline = 0.8 // well below the ~2s solo response time: everything expires
	cfg.Exec.Faults = &faults.Config{
		Seed:     5,
		SiteMTBF: 2, SiteMTTR: 0.5,
		FetchTimeout: 0.3, BackoffBase: 0.05, BackoffMax: 0.4,
	}
	return cfg
}

// TestServeInterruptStormSoak: the admission queue and the pooled kernel
// processes survive a run where interrupts dominate — no leaked goroutines
// after the simulation drains, and the whole Result reproduces exactly.
func TestServeInterruptStormSoak(t *testing.T) {
	before := runtime.NumGoroutine()
	first := mustRun(t, stormConfig(t))
	if first.Expired == 0 {
		t.Fatal("storm scenario expired nothing; deadlines are not interrupting")
	}
	second := mustRun(t, stormConfig(t))
	if !reflect.DeepEqual(first, second) {
		t.Errorf("storm run not reproducible:\n got %+v\nwant %+v", second, first)
	}
	// The kernel terminates its pooled workers and daemons when Run drains;
	// give their goroutines a moment to unwind.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after two storm runs", before, runtime.NumGoroutine())
}

// TestServeDeterministicAcrossGOMAXPROCS: the full Result — counters,
// float totals, transitions — is DeepEqual across parallelism settings.
func TestServeDeterministicAcrossGOMAXPROCS(t *testing.T) {
	overloaded := func() Result {
		cfg := testConfig(t)
		cfg.NumQueries = 40
		cfg.ArrivalRate = 8
		cfg.Deadline = 10
		cfg.Exec.Faults = &faults.Config{
			Seed:     11,
			SiteMTBF: 6, SiteMTTR: 1.5,
			FetchTimeout: 0.5, BackoffBase: 0.1, BackoffMax: 1,
		}
		return mustRun(t, cfg)
	}
	prev := runtime.GOMAXPROCS(1)
	one := overloaded()
	runtime.GOMAXPROCS(8)
	eight := overloaded()
	runtime.GOMAXPROCS(prev)
	if !reflect.DeepEqual(one, eight) {
		t.Errorf("serving run diverges across GOMAXPROCS:\n got %+v\nwant %+v", eight, one)
	}
}
