package faults

import (
	"fmt"
	"reflect"
	"testing"

	"hybridship/internal/sim"
)

// recorder collects hook firings as "time:what" strings so tests can assert
// exact fault schedules.
type recorder struct {
	s     *sim.Simulator
	trace []string
}

func (r *recorder) mark(what string) {
	r.trace = append(r.trace, fmt.Sprintf("%g:%s", r.s.Now(), what))
}

// hooksFor builds hooks for nSites sites with one disk each, recording every
// firing.
func (r *recorder) hooksFor(nSites int) Hooks {
	h := Hooks{Sites: make([]SiteHooks, nSites)}
	for i := 0; i < nSites; i++ {
		i := i
		h.Sites[i] = SiteHooks{
			Crash:   func() { r.mark(fmt.Sprintf("crash%d", i)) },
			Restart: func() { r.mark(fmt.Sprintf("restart%d", i)) },
			Disks: []DiskHooks{{
				Stall:  func() { r.mark(fmt.Sprintf("stall%d", i)) },
				Resume: func() { r.mark(fmt.Sprintf("resume%d", i)) },
			}},
		}
	}
	h.NetDown = func() { r.mark("netdown") }
	h.NetUp = func() { r.mark("netup") }
	h.NetDegrade = func(f float64) { r.mark(fmt.Sprintf("degrade(%g)", f)) }
	return h
}

func TestEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil config reports enabled")
	}
	if (&Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	for _, c := range []Config{
		{SiteMTBF: 1},
		{NetMTBF: 1},
		{DegradeMTBF: 1},
		{DiskMTBF: 1},
		{Script: []Event{{At: 1, Kind: SiteCrash}}},
	} {
		if !c.Enabled() {
			t.Errorf("config %+v reports disabled", c)
		}
	}
	// Timeout/retry tuning alone injects nothing.
	if (&Config{FetchTimeout: 2, MaxRetries: 3}).Enabled() {
		t.Error("tuning-only config reports enabled")
	}
}

// TestScriptedEventsFireInOrder replays an explicit script and checks hook
// order, times, and the resulting stats — including that each fault's
// recovery arrives Duration later on its own clock.
func TestScriptedEventsFireInOrder(t *testing.T) {
	s := sim.New()
	r := &recorder{s: s}
	in := New(s, Config{Script: []Event{
		{At: 3, Kind: DiskStall, Site: 0, Disk: 0, Duration: 0.5},
		{At: 1, Kind: SiteCrash, Site: 0, Duration: 2},
		{At: 2, Kind: NetOutage, Duration: 1},
		{At: 4, Kind: NetDegrade, Factor: 8, Duration: 1},
	}}, r.hooksFor(1))
	s.Spawn("driver", func(p *sim.Proc) { p.Hold(10) })
	s.Run()

	// Ties at t=3 resolve by event schedule order: the site-restart clock
	// armed its wakeup at t=1, before the script clock (t=2) and the
	// net-recovery clock (t=2) armed theirs.
	want := []string{
		"1:crash0", "2:netdown", "3:restart0", "3:stall0", "3:netup",
		"3.5:resume0", "4:degrade(8)", "5:degrade(1)",
	}
	if !reflect.DeepEqual(r.trace, want) {
		t.Errorf("trace %v\nwant  %v", r.trace, want)
	}
	st := in.Stats()
	wantStats := Stats{
		SiteCrashes: 1, SiteDownTime: 2,
		NetOutages: 1, NetDownTime: 1,
		NetDegrades: 1, DegradedTime: 1,
		DiskStalls: 1, DiskStallTime: 0.5,
	}
	if st != wantStats {
		t.Errorf("stats %+v, want %+v", st, wantStats)
	}
}

// TestOverlappingFaultsIdempotent checks the state transitions: a crash of an
// already-down site neither double-counts nor re-fires hooks, and the first
// recovery to arrive restores the site (the later one is a no-op).
func TestOverlappingFaultsIdempotent(t *testing.T) {
	s := sim.New()
	r := &recorder{s: s}
	in := New(s, Config{Script: []Event{
		{At: 1, Kind: SiteCrash, Site: 0, Duration: 4}, // restore at 5
		{At: 2, Kind: SiteCrash, Site: 0, Duration: 1}, // restore at 3
	}}, r.hooksFor(1))
	s.Spawn("driver", func(p *sim.Proc) { p.Hold(10) })
	s.Run()

	want := []string{"1:crash0", "3:restart0"}
	if !reflect.DeepEqual(r.trace, want) {
		t.Errorf("trace %v, want %v", r.trace, want)
	}
	st := in.Stats()
	if st.SiteCrashes != 1 || st.SiteDownTime != 2 {
		t.Errorf("stats %+v, want 1 crash with 2s downtime", st)
	}
}

// TestPermanentFaultOpenDowntimeNotCounted pins two conventions: Duration <= 0
// means no recovery is scheduled, and downtime still open when the run ends is
// excluded from the stats.
func TestPermanentFaultOpenDowntimeNotCounted(t *testing.T) {
	s := sim.New()
	r := &recorder{s: s}
	in := New(s, Config{Script: []Event{
		{At: 1, Kind: SiteCrash, Site: 0}, // permanent
	}}, r.hooksFor(1))
	s.Spawn("driver", func(p *sim.Proc) { p.Hold(10) })
	s.Run()
	if !in.SiteDown(0) {
		t.Error("site recovered from a permanent crash")
	}
	st := in.Stats()
	if st.SiteCrashes != 1 || st.SiteDownTime != 0 {
		t.Errorf("stats %+v, want 1 crash and no closed downtime", st)
	}
}

// TestZeroMTTRRecoversInOneDispatch pins the zero-delay rule of the fault
// clocks: with a zero MTTR every crash and its restart fire in one dispatch
// of the stream, at one instant, even when a trace forces every hold onto
// the kernel's slow path and another process is due at the same time.
func TestZeroMTTRRecoversInOneDispatch(t *testing.T) {
	s := sim.New()
	var dispatches int
	s.Trace = func(_ sim.Time, name string) {
		if name == "fault:1/0" {
			dispatches++
		}
	}
	type firing struct {
		what       string
		at         float64
		dispatched int64
	}
	var fired []firing
	mark := func(what string) func() {
		return func() { fired = append(fired, firing{what, s.Now(), s.Dispatched()}) }
	}
	in := New(s, Config{Seed: 9, SiteMTBF: 1},
		Hooks{Sites: []SiteHooks{{Crash: mark("crash"), Restart: mark("restart")}}})
	s.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			p.Hold(0.25)
		}
	})
	s.Run()
	crashes := in.Stats().SiteCrashes
	if crashes < 3 || len(fired) != 2*int(crashes) {
		t.Fatalf("%d crashes and %d hook firings in 10 s at MTBF 1 s: %+v", crashes, len(fired), fired)
	}
	for i := 0; i < len(fired); i += 2 {
		c, r := fired[i], fired[i+1]
		if c.what != "crash" || r.what != "restart" || c.at != r.at || c.dispatched != r.dispatched {
			t.Errorf("firings %d-%d: %+v then %+v, want a crash and a restart in one dispatch", i, i+1, c, r)
		}
	}
	// One dispatch to start the stream, then one per crash: no dispatch of
	// the stream is spent on a zero-length hold.
	if want := int(crashes) + 1; dispatches != want {
		t.Errorf("stream dispatched %d times for %d crashes, want %d", dispatches, crashes, want)
	}
	if st := in.Stats(); st.SiteDownTime != 0 || in.SiteDown(0) {
		t.Errorf("zero MTTR left downtime %g, site down %v", st.SiteDownTime, in.SiteDown(0))
	}
}

// stochasticTrace runs all four stochastic fault streams for a fixed virtual
// duration and returns the recorded hook trace plus stats.
func stochasticTrace(seed int64) ([]string, Stats) {
	s := sim.New()
	r := &recorder{s: s}
	in := New(s, Config{
		Seed:     seed,
		SiteMTBF: 5, SiteMTTR: 1,
		NetMTBF: 7, NetMTTR: 0.5,
		DegradeMTBF: 6, DegradeMTTR: 2, DegradeFactor: 3,
		DiskMTBF: 4, DiskMTTR: 0.5,
	}, r.hooksFor(2))
	s.Spawn("driver", func(p *sim.Proc) { p.Hold(60) })
	s.Run()
	return r.trace, in.Stats()
}

// TestStochasticStreamsDeterministic checks that the MTBF/MTTR-driven streams
// are a pure function of the seed: identical traces for equal seeds,
// different traces for different seeds (the streams are decorrelated, so a
// collision would indicate seed plumbing gone wrong).
func TestStochasticStreamsDeterministic(t *testing.T) {
	tr1, st1 := stochasticTrace(42)
	tr2, st2 := stochasticTrace(42)
	if !reflect.DeepEqual(tr1, tr2) {
		t.Errorf("same seed produced different traces:\n%v\n%v", tr1, tr2)
	}
	if st1 != st2 {
		t.Errorf("same seed produced different stats: %+v vs %+v", st1, st2)
	}
	if len(tr1) == 0 {
		t.Fatal("no faults fired in 60s with MTBFs of 4-7s; streams are dead")
	}
	tr3, _ := stochasticTrace(43)
	if reflect.DeepEqual(tr1, tr3) {
		t.Error("different seeds produced identical fault traces")
	}
}

// TestDefaults pins the documented zero-value defaults.
func TestDefaults(t *testing.T) {
	c := &Config{}
	if got := c.FetchTimeoutOrDefault(); got != 1.0 {
		t.Errorf("FetchTimeout default = %g, want 1", got)
	}
	if got := c.MaxRetriesOrDefault(); got != 25 {
		t.Errorf("MaxRetries default = %d, want 25", got)
	}
	if got := c.BackoffBaseOrDefault(); got != 0.25 {
		t.Errorf("BackoffBase default = %g, want 0.25", got)
	}
	if got := c.BackoffMaxOrDefault(); got != 4.0 {
		t.Errorf("BackoffMax default = %g, want 4", got)
	}
	if got := c.degradeFactor(); got != 4.0 {
		t.Errorf("degrade factor default = %g, want 4", got)
	}
}
