package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/coherence"
	"hybridship/internal/faults"
	"hybridship/internal/plan"
	"hybridship/internal/sim"
	"hybridship/internal/workload"
)

func mustSession(t *testing.T, cfg Config) *Session {
	t.Helper()
	ses, err := NewSession(cfg, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ses
}

// runOnSession executes one query on a fresh driver process of the session.
func runOnSession(t *testing.T, ses *Session, root *plan.Node, qo QueryOpts) (QueryResult, error) {
	t.Helper()
	bound, err := ses.Bind(root)
	if err != nil {
		t.Fatal(err)
	}
	var (
		qr   QueryResult
		qerr error
	)
	ses.Simulator().Spawn("driver", func(p *sim.Proc) {
		qr, qerr = ses.Execute(p, 0, bound, qo)
	})
	ses.Run()
	return qr, qerr
}

// TestSessionRejectsUnknownClient: a query names a client stream of the
// engine's fleet; without a Coherence config the fleet is client 0 alone.
func TestSessionRejectsUnknownClient(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	for _, c := range []int{-1, 1} {
		if _, err := runOnSession(t, mustSession(t, cfg), annotate(leftDeepChain(2), plan.DataShipping), QueryOpts{Client: c}); err == nil {
			t.Errorf("client %d: query ran on a one-client engine", c)
		}
	}
}

// TestSessionFaultFreeMatchesRun checks the closed runs against a session:
// the same plans on the same config give DeepEqual QueryResults whichever
// entry point runs them, across the three policies, an unloaded and a
// Figure-4-style loaded server, and with and without single-client
// coherence (a half-cached catalog, so page faults and lease renewals run
// the supervised round trip). The last row submits two queries through
// RunMulti and the same two, at the same instants, on one session.
func TestSessionFaultFreeMatchesRun(t *testing.T) {
	config := func(loaded, coh bool) Config {
		cfg := chainConfig(t, 2, 1, workload.Moderate, true)
		if err := workload.CacheAllFraction(cfg.Catalog, 0.5); err != nil {
			t.Fatal(err)
		}
		if loaded {
			cfg.ServerLoad = map[catalog.SiteID]float64{0: 40}
		}
		if coh {
			cfg.Coherence = &coherence.Config{NumClients: 1, LeaseDuration: 0.5}
		}
		return cfg
	}
	// onSession runs queries on a fresh session of cfg, query i on its own
	// process submitted at its start time, as RunMulti does.
	onSession := func(t *testing.T, cfg Config, queries []QueryRun) []QueryResult {
		ses := mustSession(t, cfg)
		out := make([]QueryResult, len(queries))
		for i, qr := range queries {
			bound, err := ses.Bind(qr.Plan)
			if err != nil {
				t.Fatal(err)
			}
			ses.Simulator().Spawn("driver", func(p *sim.Proc) {
				p.Hold(qr.Start)
				var err error
				if out[i], err = ses.Execute(p, i, bound, QueryOpts{}); err != nil {
					t.Error(err)
				}
			})
		}
		ses.Run()
		return out
	}
	for _, pol := range []plan.Policy{plan.DataShipping, plan.QueryShipping, plan.HybridShipping} {
		for _, loaded := range []bool{false, true} {
			for _, coh := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/loaded=%v/coherence=%v", pol, loaded, coh), func(t *testing.T) {
					root := annotate(leftDeepChain(2), pol)
					res, err := Run(config(loaded, coh), root)
					if err != nil {
						t.Fatal(err)
					}
					got := QueryResult{
						ResponseTime:     res.ResponseTime,
						ResultTuples:     res.ResultTuples,
						Retries:          res.Retries,
						AbortedWork:      res.AbortedWork,
						BackoffTime:      res.BackoffTime,
						ReplicaFailovers: res.ReplicaFailovers,
						BackoffSkips:     res.BackoffSkips,
					}
					want := onSession(t, config(loaded, coh), []QueryRun{{Plan: root}})[0]
					if !reflect.DeepEqual(got, want) {
						t.Errorf("Run = %+v, session = %+v", got, want)
					}
				})
			}
		}
	}
	t.Run("RunMulti", func(t *testing.T) {
		queries := []QueryRun{
			{Plan: annotate(leftDeepChain(2), plan.QueryShipping)},
			{Plan: annotate(leftDeepChain(2), plan.DataShipping), Start: 0.3},
		}
		m, err := RunMulti(config(true, false), queries)
		if err != nil {
			t.Fatal(err)
		}
		if want := onSession(t, config(true, false), queries); !reflect.DeepEqual(m.PerQuery, want) {
			t.Errorf("RunMulti = %+v, session = %+v", m.PerQuery, want)
		}
	})
}

// TestSessionReleaseHandsStorageOn: a session built after another one's
// Release starts from the released join tables and batches, creates none
// of its own for the same query, and returns the same answer at the same
// virtual time as the session that left them. The released session goes on
// with an empty pool.
func TestSessionReleaseHandsStorageOn(t *testing.T) {
	root := annotate(leftDeepChain(2), plan.HybridShipping)
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	// sync.Pool may drop what it is handed (under a collection between Put
	// and Get, or at random under the race detector), so retry until a new
	// session receives the released storage.
	var (
		want            QueryResult
		tables, batches int
		ses             *Session
	)
	for range 16 {
		first := mustSession(t, cfg)
		var err error
		if want, err = runOnSession(t, first, root, QueryOpts{}); err != nil {
			t.Fatal(err)
		}
		tables, batches = len(first.e.pool.tables), freeBatches(&first.e.pool)
		if tables == 0 {
			t.Fatal("the query left no table in the pool; the check is not exercising join storage")
		}
		first.Release()
		if n := len(first.e.pool.tables) + freeBatches(&first.e.pool); n != 0 {
			t.Fatalf("released session still pools %d items", n)
		}
		if ses = mustSession(t, cfg); len(ses.e.pool.tables) > 0 {
			break
		}
	}
	if len(ses.e.pool.tables) != tables || freeBatches(&ses.e.pool) != batches {
		t.Fatalf("new session pools %d tables and %d batches, want the released %d and %d",
			len(ses.e.pool.tables), freeBatches(&ses.e.pool), tables, batches)
	}
	created := ses.e.pool.newTables
	got, err := runOnSession(t, ses, root, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ses.e.pool.newTables != created {
		t.Errorf("session on released storage created %d tables", ses.e.pool.newTables-created)
	}
	if got.ResultTuples != want.ResultTuples || got.ResponseTime != want.ResponseTime {
		t.Errorf("on released storage: %d tuples at %g, want %d at %g",
			got.ResultTuples, got.ResponseTime, want.ResultTuples, want.ResponseTime)
	}
}

// TestSessionReleaseConcurrent: sessions built, run and released on several
// goroutines at once pass storage among themselves and all return the
// answer a lone session returns. Run it under -race.
func TestSessionReleaseConcurrent(t *testing.T) {
	root := annotate(leftDeepChain(2), plan.HybridShipping)
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	want, err := runOnSession(t, mustSession(t, cfg), root, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 8 {
				ses, err := NewSession(cfg, SessionOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				bound, err := ses.Bind(root)
				if err != nil {
					t.Error(err)
					return
				}
				var (
					got  QueryResult
					qerr error
				)
				ses.Simulator().Spawn("driver", func(p *sim.Proc) {
					got, qerr = ses.Execute(p, 0, bound, QueryOpts{})
				})
				ses.Run()
				ses.Release()
				if qerr != nil || got.ResultTuples != want.ResultTuples || got.ResponseTime != want.ResponseTime {
					t.Errorf("concurrent session: %d tuples at %g (err %v), want %d at %g",
						got.ResultTuples, got.ResponseTime, qerr, want.ResultTuples, want.ResponseTime)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSessionDeadlineAbortsInFlightAttempt: a deadline far below the solo
// response time kills the query mid-attempt, the wasted work is accounted,
// and the error matches ErrDeadlineExceeded.
func TestSessionDeadlineAbortsInFlightAttempt(t *testing.T) {
	ses, err := NewSession(chainConfig(t, 2, 1, workload.Moderate, true), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 1.0
	qr, qerr := runOnSession(t, ses, annotate(leftDeepChain(2), plan.QueryShipping), QueryOpts{Deadline: deadline})
	if !errors.Is(qerr, ErrDeadlineExceeded) {
		t.Fatalf("error = %v, want ErrDeadlineExceeded", qerr)
	}
	if qr.AbortedWork <= 0 {
		t.Errorf("AbortedWork = %g, want > 0 (the in-flight attempt was torn down)", qr.AbortedWork)
	}
	if qr.ResponseTime < deadline || qr.ResponseTime > deadline+0.1 {
		t.Errorf("ResponseTime = %g, want ~%g (abort at the deadline)", qr.ResponseTime, deadline)
	}
}

// TestBackoffTimeCountsOnlyCompletedSleeps is the regression test for the
// double-counting bug: BackoffTime used to accrue the full backoff before
// the sleep, so a deadline landing mid-sleep charged the query for backoff
// it never served. The scenario pins the exact expected value by replaying
// the query's jitter stream: a permanent crash makes every round unrunnable,
// so the timeline is attempt(0.5s) + d0 + d1 + interrupted d2, and only
// d0 + d1 may be accounted.
func TestBackoffTimeCountsOnlyCompletedSleeps(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	cfg.Faults = &faults.Config{
		Seed:   9,
		Script: []faults.Event{{At: 0.5, Kind: faults.SiteCrash, Site: 0}}, // permanent
	}
	fp := newFailoverParams(cfg.Faults)
	rng := rand.New(rand.NewSource(retrySeed(cfg.Faults.Seed, 0)))
	d0 := fp.backoff(0, rng)
	d1 := fp.backoff(1, rng)
	d2 := fp.backoff(2, rng)
	deadline := 0.5 + d0 + d1 + 0.5*d2 // lands mid-way through the third sleep

	ses, err := NewSession(cfg, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qr, qerr := runOnSession(t, ses, annotate(leftDeepChain(2), plan.QueryShipping), QueryOpts{Deadline: deadline})
	if !errors.Is(qerr, ErrDeadlineExceeded) {
		t.Fatalf("error = %v, want ErrDeadlineExceeded", qerr)
	}
	want := d0 + d1
	if math.Abs(qr.BackoffTime-want) > 1e-9 {
		t.Errorf("BackoffTime = %g, want %g (only completed sleeps; the interrupted d2 = %g must not count)",
			qr.BackoffTime, want, d2)
	}
	if qr.Retries != 3 {
		t.Errorf("Retries = %d, want 3", qr.Retries)
	}
}

// deniedRetry implements RetryGate, always refusing.
type deniedRetry struct{ asked int }

func (d *deniedRetry) AllowRetry() bool { d.asked++; return false }

// TestSessionRetryGateStopsRetries: with the fleet budget refusing, the
// first failure ends the query with ErrRetryBudgetExhausted instead of
// backing off.
func TestSessionRetryGateStopsRetries(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	cfg.Faults = &faults.Config{
		Seed:   9,
		Script: []faults.Event{{At: 0.5, Kind: faults.SiteCrash, Site: 0}},
	}
	gate := &deniedRetry{}
	ses, err := NewSession(cfg, SessionOptions{Retry: gate})
	if err != nil {
		t.Fatal(err)
	}
	qr, qerr := runOnSession(t, ses, annotate(leftDeepChain(2), plan.QueryShipping), QueryOpts{})
	if !errors.Is(qerr, ErrRetryBudgetExhausted) {
		t.Fatalf("error = %v, want ErrRetryBudgetExhausted", qerr)
	}
	if gate.asked != 1 {
		t.Errorf("retry gate consulted %d times, want 1", gate.asked)
	}
	if qr.Retries != 1 {
		t.Errorf("Retries = %d, want 1", qr.Retries)
	}
	if qr.BackoffTime != 0 {
		t.Errorf("BackoffTime = %g, want 0 (no retry was granted)", qr.BackoffTime)
	}
}

// recordingGate implements SiteGate with a configurable admission answer.
type recordingGate struct {
	deny      bool
	allows    int
	successes int
	failures  int
}

func (g *recordingGate) Allow(int, int) bool    { g.allows++; return !g.deny }
func (g *recordingGate) Shed(int, int) bool     { return false }
func (g *recordingGate) ReportSuccess(int, int) { g.successes++ }
func (g *recordingGate) ReportFailure(int, int) { g.failures++ }

// TestSessionSiteGateShedsBeforeAttempting: a denying gate makes every round
// unrunnable before any work is done, so the query burns no attempt time and
// fails with retry exhaustion mentioning the breaker.
func TestSessionSiteGateShedsBeforeAttempting(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	cfg.Faults = &faults.Config{Seed: 4, MaxRetries: 2}
	gate := &recordingGate{deny: true}
	ses, err := NewSession(cfg, SessionOptions{Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	qr, qerr := runOnSession(t, ses, annotate(leftDeepChain(2), plan.QueryShipping), QueryOpts{})
	if qerr == nil {
		t.Fatal("query succeeded although the gate denies its only server")
	}
	if !strings.Contains(qerr.Error(), reasonBreakerOpen) {
		t.Errorf("error %q does not mention the open breaker", qerr)
	}
	if gate.allows == 0 {
		t.Error("gate was never consulted")
	}
	if qr.AbortedWork != 0 {
		t.Errorf("AbortedWork = %g, want 0 (no attempt may start past a denied gate)", qr.AbortedWork)
	}
}

// TestSessionSiteGateSeesSuccesses: an allowing gate receives success
// reports for the attempt's dependency sites (and per completed fetch).
func TestSessionSiteGateSeesSuccesses(t *testing.T) {
	gate := &recordingGate{}
	ses, err := NewSession(chainConfig(t, 2, 1, workload.Moderate, true), SessionOptions{Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runOnSession(t, ses, annotate(leftDeepChain(2), plan.QueryShipping), QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	if gate.successes == 0 {
		t.Error("gate saw no success reports from a completed query")
	}
	if gate.failures != 0 {
		t.Errorf("gate saw %d failure reports from a fault-free run", gate.failures)
	}
}
