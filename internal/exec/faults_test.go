package exec

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hybridship/internal/disk"
	"hybridship/internal/faults"
	"hybridship/internal/plan"
	"hybridship/internal/sim"
	"hybridship/internal/workload"
)

// TestCrashDuringQueryRetriesAndCompletes is the acceptance scenario: a
// server crash mid-query aborts the attempt, the query backs off and retries
// after the restart, and the final answer is exactly the fault-free one —
// with the wasted work and the retry visible in the counters.
func TestCrashDuringQueryRetriesAndCompletes(t *testing.T) {
	clean := func() Result {
		cfg := chainConfig(t, 2, 1, workload.Moderate, true)
		res, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	faulted := func() Result {
		cfg := chainConfig(t, 2, 1, workload.Moderate, true)
		cfg.Faults = &faults.Config{
			Seed:   7,
			Script: []faults.Event{{At: 1.0, Kind: faults.SiteCrash, Site: 0, Duration: 2.0}},
		}
		res, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	base := clean()
	res := faulted()
	if res.ResultTuples != base.ResultTuples {
		t.Errorf("faulted run returned %d tuples, want the fault-free %d", res.ResultTuples, base.ResultTuples)
	}
	if res.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1 (the crash must have aborted an attempt)", res.Retries)
	}
	if res.AbortedWork <= 0 {
		t.Errorf("AbortedWork = %g, want > 0", res.AbortedWork)
	}
	if res.BackoffTime <= 0 {
		t.Errorf("BackoffTime = %g, want > 0", res.BackoffTime)
	}
	if res.ResponseTime <= base.ResponseTime {
		t.Errorf("faulted response time %g not above fault-free %g", res.ResponseTime, base.ResponseTime)
	}
	if res.FaultStats.SiteCrashes != 1 {
		t.Errorf("FaultStats.SiteCrashes = %d, want 1", res.FaultStats.SiteCrashes)
	}

	// Determinism including the failure counters: same seed, same config,
	// bit-identical Result.
	if again := faulted(); !reflect.DeepEqual(res, again) {
		t.Errorf("repeated faulted run diverged:\n got %+v\nwant %+v", again, res)
	}
}

// TestPermanentCrashFallsBackToClientCache checks client-side data shipping
// as the availability fallback: when the only server dies for good but the
// client cache holds every page, re-binding moves the scans (and their
// consumers) to the client and the query still completes.
func TestPermanentCrashFallsBackToClientCache(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	if err := workload.CacheAllFraction(cfg.Catalog, 1.0); err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &faults.Config{
		Seed:   3,
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
}

// TestPermanentCrashWithoutCacheFails checks the other side of the fallback:
// with the relations only partially cached the dead server is irreplaceable,
// so the query exhausts its retries and reports a clear error.
func TestPermanentCrashWithoutCacheFails(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	cfg.Faults = &faults.Config{
		Seed:       3,
		MaxRetries: 3,
		Script:     []faults.Event{{At: 0.5, Kind: faults.SiteCrash, Site: 0}},
	}
	_, err := Run(cfg, annotate(leftDeepChain(2), plan.QueryShipping))
	if err == nil {
		t.Fatal("query against a permanently dead, uncached server succeeded")
	}
	if !strings.Contains(err.Error(), "failed after") {
		t.Errorf("error %q does not report retry exhaustion", err)
	}
}

// TestFetchTimeoutRecoversFromOutage drives the page-fault-shipping watchdog:
// a network outage stalls a synchronous fetch past FetchTimeout, the attempt
// aborts, and retries succeed once the link is back.
func TestFetchTimeoutRecoversFromOutage(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	if err := workload.CacheAllFraction(cfg.Catalog, 0.5); err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &faults.Config{
		Seed:         11,
		FetchTimeout: 0.5,
		Script:       []faults.Event{{At: 0.2, Kind: faults.NetOutage, Duration: 3.0}},
	}
	res, err := Run(cfg, annotate(leftDeepChain(2), plan.DataShipping))
	if err != nil {
		t.Fatal(err)
	}
	if want := workload.ExpectedResult(2, workload.Moderate); res.ResultTuples != want {
		t.Errorf("result tuples = %d, want %d", res.ResultTuples, want)
	}
	if res.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1 (the timed-out fetch must have aborted an attempt)", res.Retries)
	}
	if res.FaultStats.NetOutages != 1 {
		t.Errorf("FaultStats.NetOutages = %d, want 1", res.FaultStats.NetOutages)
	}
}

// TestFaultFreeConfigsAgree compares three executions of the same query: the
// default recovery settings (Faults nil), a disabled fault config
// (Enabled() == false), and an injecting config whose only scripted fault
// lies far beyond the end of the run. All three must produce the same virtual-time behavior — the
// fault-handling machinery may not shift a single event when no fault fires.
func TestFaultFreeConfigsAgree(t *testing.T) {
	run := func(fc *faults.Config) Result {
		cfg := chainConfig(t, 4, 2, workload.Moderate, true)
		cfg.Faults = fc
		res, err := Run(cfg, annotate(leftDeepChain(4), plan.HybridShipping))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	disabled := run(&faults.Config{MaxRetries: 5}) // tuning only: not enabled
	if !reflect.DeepEqual(base, disabled) {
		t.Errorf("disabled fault config diverged from the defaults:\n got %+v\nwant %+v", disabled, base)
	}
	idle := run(&faults.Config{
		Seed:   9,
		Script: []faults.Event{{At: 1e9, Kind: faults.SiteCrash, Site: 0, Duration: 1}},
	})
	if idle.ResultTuples != base.ResultTuples ||
		idle.ResponseTime != base.ResponseTime ||
		idle.PagesSent != base.PagesSent ||
		idle.Messages != base.Messages ||
		idle.Retries != 0 {
		t.Errorf("injecting-but-idle fault config changed the run:\n got %+v\nwant %+v", idle, base)
	}
}

// TestDisabledFaultConfigFetchTimeoutRetries: a fault config that injects
// nothing still sets the recovery policy of a closed run, because every
// query runs supervised. A fetch timeout shorter than any page-fault round
// trip times out every attempt of a data-shipping query on a half-cached
// catalog, which retries until its cap.
func TestDisabledFaultConfigFetchTimeoutRetries(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	if err := workload.CacheAllFraction(cfg.Catalog, 0.5); err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &faults.Config{FetchTimeout: 1e-4, MaxRetries: 2}
	if cfg.Faults.Enabled() {
		t.Fatal("the config injects faults; the test needs a disabled one")
	}
	_, err := Run(cfg, annotate(leftDeepChain(2), plan.DataShipping))
	if want := "failed after 3 attempts: " + reasonFetchTimeout; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run error = %v, want one containing %q", err, want)
	}
}

// TestFaultedRunDeterministicAcrossGOMAXPROCS is the seed-discipline
// regression for the fault subsystem: a stochastically faulted execution —
// crashes, retries, aborts and all — must be a pure function of the seed,
// independent of host parallelism.
func TestFaultedRunDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func() Result {
		cfg := chainConfig(t, 2, 1, workload.Moderate, true)
		cfg.Faults = &faults.Config{
			Seed:     5,
			SiteMTBF: 3,
			SiteMTTR: 1,
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
		t.Errorf("faulted Result diverged across GOMAXPROCS:\n got %+v\nwant %+v", got, ref)
	}
	if ref.Retries < 1 {
		t.Errorf("Retries = %d; the MTBF is too long to exercise the retry counters", ref.Retries)
	}
}

// superviseFetch spawns the main process of a registered attempt: it holds
// for begin, yields yields times, begins a fetch from (site, role) and ends
// it after hang, or never when hang < 0. The attempt's abort is logged as
// "name@time".
func superviseFetch(e *engine, name string, begin float64, yields int, site, role int, hang float64, log *[]string) *attemptState {
	a := &attemptState{e: e, failSite: -1}
	e.sim.Spawn(name, func(p *sim.Proc) {
		a.mainProc, a.main = p, p.Ref()
		e.registerAttempt(a)
		defer e.unregisterAttempt(a)
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(sim.Interrupted); !ok {
					panic(r)
				}
				*log = append(*log, fmt.Sprintf("%s@%g", name, e.sim.Now()))
			}
		}()
		p.Hold(begin)
		for range yields {
			p.Yield()
		}
		a.beginFetch(site, role)
		if hang < 0 {
			p.Hold(10 * e.ftl.fetchTimeout)
			return
		}
		p.Hold(hang)
		a.endFetch()
	})
	return a
}

// TestFetchWatchdogAbortsInBeginOrder: two attempts whose fetches begin at
// one instant and both hang are aborted exactly fetchTimeout later, in the
// order the fetches began (not the order the attempts registered), each
// attributed to its own source site and role.
func TestFetchWatchdogAbortsInBeginOrder(t *testing.T) {
	e, _ := rebindFixture(t)
	var log []string
	const begin = 0.25
	first := superviseFetch(e, "registered-first", begin, 1, 1, RoleSecondary, -1, &log)
	second := superviseFetch(e, "registered-second", begin, 0, 2, RolePrimary, -1, &log)
	e.sim.Run()
	at := begin + e.ftl.fetchTimeout
	want := []string{fmt.Sprintf("registered-second@%g", at), fmt.Sprintf("registered-first@%g", at)}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("aborts %v, want %v", log, want)
	}
	for _, c := range []struct {
		a          *attemptState
		site, role int
	}{{first, 1, RoleSecondary}, {second, 2, RolePrimary}} {
		if c.a.reason != reasonFetchTimeout || c.a.failSite != c.site || c.a.failRole != c.role {
			t.Errorf("abort %q attributed to site %d role %d, want %q at site %d role %d",
				c.a.reason, c.a.failSite, c.a.failRole, reasonFetchTimeout, c.site, c.role)
		}
	}
}

// TestFetchWatchdogUsesLaterDeadline: a fetch that ends quickly does not
// cut short the next one. The watchdog armed for the first fetch's deadline
// finds it over and re-arms, and the second fetch, begun 0.5 s later and
// hanging, aborts at its own deadline.
func TestFetchWatchdogUsesLaterDeadline(t *testing.T) {
	e, _ := rebindFixture(t)
	var log []string
	superviseFetch(e, "quick", 0, 0, 1, RolePrimary, 0.1, &log)
	hung := superviseFetch(e, "hung", 0.5, 0, 1, RolePrimary, -1, &log)
	e.sim.Run()
	if want := []string{fmt.Sprintf("hung@%g", hung.fetchAt+e.ftl.fetchTimeout)}; !reflect.DeepEqual(log, want) {
		t.Fatalf("aborts %v, want %v", log, want)
	}
}

// TestFetchWatchdogOneCallbackPerTimeout: a thousand back-to-back short
// fetches within one timeout cost the kernel at most one watchdog callback.
func TestFetchWatchdogOneCallbackPerTimeout(t *testing.T) {
	e, _ := rebindFixture(t)
	calls := 0
	check := e.watch.check
	e.watch.check = func() { calls++; check() }
	a := &attemptState{e: e, failSite: -1}
	e.sim.Spawn("fetcher", func(p *sim.Proc) {
		a.mainProc, a.main = p, p.Ref()
		e.registerAttempt(a)
		defer e.unregisterAttempt(a)
		for range 1000 {
			a.beginFetch(0, RolePrimary)
			p.Hold(e.ftl.fetchTimeout / 2000)
			a.endFetch()
		}
		p.Hold(2 * e.ftl.fetchTimeout)
	})
	e.sim.Run()
	if a.failed {
		t.Fatalf("a finished fetch aborted the attempt: %s", a.reason)
	}
	if calls > 1 {
		t.Errorf("%d watchdog callbacks for 1000 short fetches, want at most 1", calls)
	}
}

// TestFetchWatchdogZeroAlloc pins the warm page-fault watchdog: arming it
// for a registered attempt's fetch, ending the fetch, and letting the
// watchdog fire, scan the attempts and go idle allocates nothing.
func TestFetchWatchdogZeroAlloc(t *testing.T) {
	e, _ := rebindFixture(t)
	a := &attemptState{e: e, failSite: -1}
	calls := 0
	check := e.watch.check
	e.watch.check = func() { calls++; check() }
	var allocs float64
	e.sim.Spawn("fetcher", func(p *sim.Proc) {
		a.mainProc, a.main = p, p.Ref()
		e.registerAttempt(a)
		defer e.unregisterAttempt(a)
		round := func() {
			a.beginFetch(0, RolePrimary)
			p.Hold(1e-6)
			a.endFetch()
			p.Hold(e.ftl.fetchTimeout) // the watchdog fires, finds the fetch over, and goes idle
		}
		for i := 0; i < 8; i++ {
			round()
		}
		allocs = testing.AllocsPerRun(50, round)
	})
	e.sim.Run()
	if a.failed {
		t.Fatalf("the watchdog aborted an attempt whose fetch had ended: %s", a.reason)
	}
	if calls != 8+51 {
		t.Errorf("%d watchdog callbacks for %d rounds, want one per round", calls, 8+51)
	}
	if allocs != 0 {
		t.Errorf("warm fetch watchdog allocates %v per fetch, want 0", allocs)
	}
}

// TestPageFaultRoundTripZeroAlloc pins the warm page-fault round trip: a
// request queued on the server's pager, its receive, disk read, page
// transmit and reply, and the requester's wake allocate nothing once the
// queues have reached their size.
func TestPageFaultRoundTripZeroAlloc(t *testing.T) {
	e := mustSession(t, chainConfig(t, 2, 1, workload.Moderate, true)).e
	ps := e.servers[0].pager
	reply := sim.NewBuffer(e.sim, "fault-reply", 1)
	var allocs float64
	served := 0
	e.sim.Spawn("faulter", func(p *sim.Proc) {
		round := func() {
			ps.fetch(p, diskAddr{page: disk.PageAddr(served % 64)}, false, reply)
			served++
		}
		for range 8 {
			round()
		}
		allocs = testing.AllocsPerRun(50, round)
	})
	e.sim.Run()
	if served != 8+51 {
		t.Fatalf("%d round trips completed, want %d", served, 8+51)
	}
	if allocs != 0 {
		t.Errorf("warm page-fault round trip allocates %v, want 0", allocs)
	}
}

// TestPassedDeadlineFiresAtOnce: a deadline that has already passed when
// the query starts executing fires at that instant. A process that arms one
// is interrupted without any virtual time passing, and Execute fails at
// once, before any attempt.
func TestPassedDeadlineFiresAtOnce(t *testing.T) {
	ses := mustSession(t, chainConfig(t, 2, 1, workload.Moderate, true))
	e := ses.e
	firedAt := -1.0
	e.sim.Spawn("late", func(p *sim.Proc) {
		p.Hold(2)
		e.armDeadline(p, 1)
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(sim.Interrupted); !ok {
					panic(r)
				}
				firedAt = e.sim.Now()
			}
		}()
		p.Hold(1)
	})
	e.sim.Run()
	if firedAt != 2 {
		t.Errorf("passed deadline fired at %g, want 2 (the instant it was armed)", firedAt)
	}

	ses = mustSession(t, chainConfig(t, 2, 1, workload.Moderate, true))
	bound, err := ses.Bind(annotate(leftDeepChain(2), plan.QueryShipping))
	if err != nil {
		t.Fatal(err)
	}
	var (
		qr   QueryResult
		qerr error
	)
	ses.Simulator().Spawn("late-query", func(p *sim.Proc) {
		p.Hold(2)
		qr, qerr = ses.Execute(p, 0, bound, QueryOpts{Deadline: 1})
	})
	ses.Run()
	if !errors.Is(qerr, ErrDeadlineExceeded) || qr.ResponseTime != 0 || qr.Retries != 0 {
		t.Errorf("Execute past its deadline: err %v, response time %g, %d retries; want ErrDeadlineExceeded at once",
			qerr, qr.ResponseTime, qr.Retries)
	}
}
