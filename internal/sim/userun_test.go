package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// useRunOutcome captures everything a UseRun call can influence: the final
// clock (bit-exact float fold), the resource counters, and — via the event
// log filled in by competing processes — the schedule every other process
// observed.
type useRunOutcome struct {
	end      Time
	at       Time
	busy     Time
	requests int64
	log      []string
}

// runUseRunScenario runs body in a one-resource simulation and returns the
// outcome. When coalesce is true the charges go through one UseRun call;
// otherwise through the per-part Use reference.
func runUseRunScenario(parts []Time, coalesce bool, extra func(s *Simulator, r *Resource, log *[]string)) useRunOutcome {
	s := New()
	r := NewResource(s, "cpu")
	var out useRunOutcome
	s.Spawn("worker", func(p *Proc) {
		if coalesce {
			r.UseRun(p, parts)
		} else {
			for _, dt := range parts {
				r.Use(p, dt)
			}
		}
		out.at = p.Sim().Now()
	})
	if extra != nil {
		extra(s, r, &out.log)
	}
	out.end = s.Run()
	out.busy = r.BusyTime()
	out.requests = r.Requests()
	return out
}

func checkUseRunEqual(t *testing.T, name string, got, want useRunOutcome) {
	t.Helper()
	if got.at != want.at || got.end != want.end {
		t.Errorf("%s: clock (at=%v end=%v), want (at=%v end=%v)", name, got.at, got.end, want.at, want.end)
	}
	if got.busy != want.busy {
		t.Errorf("%s: busy = %v, want %v", name, got.busy, want.busy)
	}
	if got.requests != want.requests {
		t.Errorf("%s: requests = %d, want %d", name, got.requests, want.requests)
	}
	if fmt.Sprint(got.log) != fmt.Sprint(want.log) {
		t.Errorf("%s: observer log = %v, want %v", name, got.log, want.log)
	}
}

// TestUseRunQuietMatchesPerPartUse: on an idle resource with nothing else
// scheduled, UseRun's in-place path must land on the exact left-folded clock
// and counters of the per-part reference — including float parts chosen to
// expose any reassociation (0.1+0.2 style non-associativity).
func TestUseRunQuietMatchesPerPartUse(t *testing.T) {
	cases := [][]Time{
		{},
		{0.7},
		{0.1, 0.2},
		{0.1, 0.2, 0.3, 0.4, 0.5},
		{1e-9, 1e3, 2.5e-7, 0.1, 1e-12, 3.7},
	}
	for i, parts := range cases {
		got := runUseRunScenario(parts, true, nil)
		want := runUseRunScenario(parts, false, nil)
		checkUseRunEqual(t, fmt.Sprintf("case %d", i), got, want)
	}
}

// TestUseRunContendedMatchesPerPartUse: a competitor queued for the same
// single-server resource forces the reference fallback; its acquisition times
// (and everything downstream) must match the per-part run exactly.
func TestUseRunContendedMatchesPerPartUse(t *testing.T) {
	parts := []Time{0.3, 0.4, 0.5}
	contend := func(s *Simulator, r *Resource, log *[]string) {
		s.Spawn("rival", func(p *Proc) {
			p.Hold(0.35) // lands mid-run: between part 1 and part 2
			r.Use(p, 0.25)
			*log = append(*log, fmt.Sprintf("rival done at %g", p.Sim().Now()))
		})
	}
	got := runUseRunScenario(parts, true, contend)
	want := runUseRunScenario(parts, false, contend)
	checkUseRunEqual(t, "contended", got, want)
	if len(got.log) != 1 {
		t.Fatalf("rival never ran: %v", got.log)
	}
}

// TestUseRunPendingEventMatchesPerPartUse: an event inside the run window
// (here a plain timer-like observer process) must see the same intermediate
// clock whether the charges were coalesced or not.
func TestUseRunPendingEventMatchesPerPartUse(t *testing.T) {
	parts := []Time{0.25, 0.25, 0.25, 0.25}
	observe := func(s *Simulator, r *Resource, log *[]string) {
		s.Spawn("observer", func(p *Proc) {
			p.Hold(0.6)
			*log = append(*log, fmt.Sprintf("observed busy=%g inUse=%v at %g", r.BusyTime(), r.InUse(), p.Sim().Now()))
		})
	}
	got := runUseRunScenario(parts, true, observe)
	want := runUseRunScenario(parts, false, observe)
	checkUseRunEqual(t, "pending event", got, want)
}

// TestUseRunTraceForcesReference: with Trace set the in-place path is
// disabled, so every per-part dispatch is observable — same count as the
// reference.
func TestUseRunTraceForcesReference(t *testing.T) {
	parts := []Time{0.1, 0.2, 0.3}
	run := func(coalesce bool) []string {
		s := New()
		var lines []string
		s.Trace = func(tm Time, proc string) { lines = append(lines, fmt.Sprintf("%g %s", tm, proc)) }
		r := NewResource(s, "cpu")
		s.Spawn("worker", func(p *Proc) {
			if coalesce {
				r.UseRun(p, parts)
			} else {
				for _, dt := range parts {
					r.Use(p, dt)
				}
			}
		})
		s.Run()
		return lines
	}
	got, want := run(true), run(false)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("trace log = %v, want %v", got, want)
	}
	if len(got) == 0 {
		t.Error("trace saw no dispatches; slow path not taken")
	}
}

// TestUseRunInterruptMatchesPerPartUse: an interrupt landing mid-run
// must unwind the holder at the same virtual time, with the same counters,
// as the per-part reference (the deferred Release in Use frees the server
// either way).
func TestUseRunInterruptMatchesPerPartUse(t *testing.T) {
	parts := []Time{0.3, 0.3, 0.3}
	run := func(coalesce bool) useRunOutcome {
		s := New()
		r := NewResource(s, "cpu")
		var out useRunOutcome
		victim := s.Spawn("victim", func(p *Proc) {
			defer func() {
				if e := recover(); e != nil {
					if _, ok := e.(Interrupted); !ok {
						panic(e)
					}
					out.log = append(out.log, fmt.Sprintf("interrupted at %g", p.Sim().Now()))
				}
			}()
			if coalesce {
				r.UseRun(p, parts)
			} else {
				for _, dt := range parts {
					r.Use(p, dt)
				}
			}
			out.at = p.Sim().Now()
		})
		s.Spawn("assassin", func(p *Proc) {
			p.Hold(0.45) // mid part 2
			victim.Interrupt("test")
			r.Use(p, 0.1) // server must be free after the unwind
			out.log = append(out.log, fmt.Sprintf("assassin done at %g", p.Sim().Now()))
		})
		out.end = s.Run()
		out.busy = r.BusyTime()
		out.requests = r.Requests()
		return out
	}
	got, want := run(true), run(false)
	checkUseRunEqual(t, "interrupt", got, want)
	if len(got.log) != 2 {
		t.Fatalf("expected interrupt + assassin log entries, got %v", got.log)
	}
}

// TestUseRunHorizonMatchesPerPartUse: a run crossing a shard window horizon
// must park at the same points as the reference, leaving the same clock and
// remaining-event state at the window boundary.
func TestUseRunHorizonMatchesPerPartUse(t *testing.T) {
	parts := []Time{0.4, 0.4, 0.4}
	run := func(coalesce bool) (Time, Time, Time) {
		s := New()
		r := NewResource(s, "cpu")
		s.Spawn("worker", func(p *Proc) {
			if coalesce {
				r.UseRun(p, parts)
			} else {
				for _, dt := range parts {
					r.Use(p, dt)
				}
			}
		})
		next := s.RunWindow(1.0) // horizon mid part 3
		nowAt := s.Now()
		s.RunWindow(10)
		return next, nowAt, s.Now()
	}
	gn, ga, ge := run(true)
	wn, wa, we := run(false)
	if gn != wn || ga != wa || ge != we {
		t.Errorf("horizon run = (next %v, at %v, end %v), want (%v, %v, %v)", gn, ga, ge, wn, wa, we)
	}
	if want := (Time(0.4) + 0.4) + 0.4; ge != want {
		t.Errorf("final clock = %v, want %v", ge, want)
	}
}

// TestQuickUseRunRandomSchedules: randomized competitor schedules; coalesced
// and per-part runs must agree on clock, counters, and the full observer log.
func TestQuickUseRunRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		parts := make([]Time, n)
		for i := range parts {
			parts[i] = Time(rng.Float64())
		}
		rivalStart := Time(rng.Float64() * 2)
		rivalHold := Time(rng.Float64() * 0.5)
		contend := func(s *Simulator, r *Resource, log *[]string) {
			s.Spawn("rival", func(p *Proc) {
				p.Hold(rivalStart)
				r.Use(p, rivalHold)
				*log = append(*log, fmt.Sprintf("rival %g", p.Sim().Now()))
			})
		}
		got := runUseRunScenario(parts, true, contend)
		want := runUseRunScenario(parts, false, contend)
		checkUseRunEqual(t, fmt.Sprintf("trial %d", trial), got, want)
	}
}
