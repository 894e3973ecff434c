package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// actorOp is one step of an actor script: hold for dt, or (block) wait
// until a waker clears the actor's waiting flag.
type actorOp struct {
	block bool
	dt    Time
}

// wakerOp is one step of a waker script: hold for dt, then wake the actor,
// either only if it is waiting or unconditionally (a spurious wake, which
// cuts short whatever the actor is parked in, for a process and a task
// alike).
type wakerOp struct {
	dt       Time
	spurious bool
}

type actorScript struct {
	actor  []actorOp
	wakers [2][]wakerOp
}

// randomActorScript draws a script whose holds land on a coarse grid, so
// that the actor's wakeups tie with the wakers' often.
func randomActorScript(rng *rand.Rand) actorScript {
	dt := func() Time {
		if rng.Intn(4) == 0 {
			return rng.Float64()
		}
		return Time(rng.Intn(4)) * 0.25
	}
	var sc actorScript
	for i := rng.Intn(30); i >= 0; i-- {
		sc.actor = append(sc.actor, actorOp{block: rng.Intn(3) == 0, dt: dt()})
	}
	for w := range sc.wakers {
		for i := rng.Intn(20); i >= 0; i-- {
			sc.wakers[w] = append(sc.wakers[w], wakerOp{dt: dt(), spurious: rng.Intn(5) == 0})
		}
	}
	return sc
}

// actorRun is what a run of an actor script is compared on.
type actorRun struct {
	Log        []string // actor op completions, "op@time"
	Trace      []string
	End        Time
	Dispatched int64
}

// runActorScript runs the script with the actor as a daemon process
// (asTask false) or as a task, on a plain Run or, when window > 0, on
// RunWindow steps of that width.
func runActorScript(sc actorScript, asTask, traced bool, window Time) actorRun {
	s := New()
	var run actorRun
	if traced {
		s.Trace = func(t Time, name string) { run.Trace = append(run.Trace, fmt.Sprintf("%.17g %s", t, name)) }
	}
	waiting := false
	record := func(i int) { run.Log = append(run.Log, fmt.Sprintf("%d@%.17g", i, s.Now())) }

	var wake func()
	if asTask {
		pc, inOp := 0, false
		t := s.SpawnTaskLazy(func() string { return "actor" }, func(t *Task) {
			for pc < len(sc.actor) {
				o := sc.actor[pc]
				if !inOp {
					inOp = true
					if o.block {
						waiting = true
					} else if !t.Hold(o.dt) {
						return
					}
				}
				if o.block && waiting {
					return
				}
				inOp = false
				record(pc)
				pc++
			}
		})
		wake = t.Wake
	} else {
		p := s.SpawnDaemonLazy(func() string { return "actor" }, func(p *Proc) {
			for i, o := range sc.actor {
				if o.block {
					waiting = true
					for waiting {
						p.Block()
					}
				} else {
					p.Hold(o.dt)
				}
				record(i)
			}
			for {
				p.Block() // stay alive, like the task, for later wakes
			}
		})
		wake = p.Unblock
	}
	for w, ops := range sc.wakers {
		ops := ops
		s.Spawn(fmt.Sprintf("w%d", w), func(p *Proc) {
			for _, o := range ops {
				p.Hold(o.dt)
				if waiting || o.spurious {
					waiting = false
					wake()
				}
			}
		})
	}
	run.End = drive(s, window)
	run.Dispatched = s.Dispatched()
	return run
}

// drive runs s to the end on a plain Run or, when window > 0, on RunWindow
// steps of that width, and returns the final clock.
func drive(s *Simulator, window Time) Time {
	if window == 0 {
		return s.Run()
	}
	for h := window; s.Running() > 0; h += window {
		s.RunWindow(h)
	}
	s.Finish()
	return s.Now()
}

// TestTaskMatchesProcess runs random hold/wake scripts with the actor as a
// process and as a task, traced and untraced, on a plain Run and under
// RunWindow, and requires the same op completions, dispatch trace, final
// clock and dispatch count.
func TestTaskMatchesProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 400; i++ {
		sc := randomActorScript(rng)
		for _, window := range []Time{0, 0.25, 0.7} {
			for _, traced := range []bool{false, true} {
				want := runActorScript(sc, false, traced, window)
				got := runActorScript(sc, true, traced, window)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("script %d (window %g, traced %v): task diverged from process\n got %+v\nwant %+v",
						i, window, traced, got, want)
				}
			}
		}
	}
}

// clockScript is a clock's delays (zeros and same-instant ties included),
// whether it is live, and the holds of two other processes.
type clockScript struct {
	delays []Time
	live   bool
	others [2][]Time
}

func randomClockScript(rng *rand.Rand) clockScript {
	dt := func() Time {
		switch rng.Intn(5) {
		case 0:
			return rng.Float64()
		case 1:
			return 0
		}
		return Time(rng.Intn(4)) * 0.25
	}
	sc := clockScript{live: rng.Intn(2) == 0}
	for i := rng.Intn(30); i >= 0; i-- {
		sc.delays = append(sc.delays, dt())
	}
	for w := range sc.others {
		for i := rng.Intn(20); i >= 0; i-- {
			sc.others[w] = append(sc.others[w], dt())
		}
	}
	return sc
}

// runClockScript runs the script with the clock as the process SpawnClock
// documents (asClock false) or as a clock. Every third firing spawns a
// daemon that holds and logs, so firings take seqs as a fault recovery or a
// load arrival does.
func runClockScript(sc clockScript, asClock, traced bool, window Time) actorRun {
	s := New()
	var run actorRun
	if traced {
		s.Trace = func(t Time, name string) { run.Trace = append(run.Trace, fmt.Sprintf("%.17g %s", t, name)) }
	}
	record := func(what string) { run.Log = append(run.Log, fmt.Sprintf("%s@%.17g", what, s.Now())) }
	i := 0
	next := func() (Time, bool) {
		if i == len(sc.delays) {
			return 0, false
		}
		return sc.delays[i], true
	}
	fire := func() {
		record(fmt.Sprint("fire", i))
		if i%3 == 0 {
			what := fmt.Sprint("spawned", i)
			s.SpawnDaemonLazy(func() string { return "spawned" }, func(p *Proc) {
				p.Hold(0.25)
				record(what)
			})
		}
		i++
	}
	name := func() string { return "clock" }
	if asClock {
		s.SpawnClock(name, sc.live, next, fire)
	} else {
		body := func(p *Proc) {
			for {
				dt, ok := next()
				if !ok {
					return
				}
				if dt != 0 {
					p.Hold(dt)
				}
				fire()
			}
		}
		if sc.live {
			s.Spawn("clock", body)
		} else {
			s.SpawnDaemonLazy(name, body)
		}
	}
	for w, holds := range sc.others {
		w, holds := w, holds
		s.Spawn(fmt.Sprintf("w%d", w), func(p *Proc) {
			for k, dt := range holds {
				p.Hold(dt)
				record(fmt.Sprintf("w%d.%d", w, k))
			}
		})
	}
	run.End = drive(s, window)
	run.Dispatched = s.Dispatched()
	return run
}

// TestClockMatchesProcess runs random clock scripts as the process that
// SpawnClock documents and as a clock, live and daemon, traced and
// untraced, on a plain Run and under RunWindow, and requires the same
// firings, dispatch trace, final clock and dispatch count.
func TestClockMatchesProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 400; i++ {
		sc := randomClockScript(rng)
		for _, window := range []Time{0, 0.25, 0.7} {
			for _, traced := range []bool{false, true} {
				want := runClockScript(sc, false, traced, window)
				got := runClockScript(sc, true, traced, window)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("script %d (window %g, traced %v, live %v): clock diverged from process\n got %+v\nwant %+v",
						i, window, traced, sc.live, got, want)
				}
			}
		}
	}
}

// TestTaskHoldNegativePanics mirrors TestHoldNegativePanics for tasks.
func TestTaskHoldNegativePanics(t *testing.T) {
	s := New()
	s.SpawnTaskLazy(func() string { return "bad" }, func(t *Task) { t.Hold(-1) })
	s.Spawn("driver", func(p *Proc) { p.Hold(1) })
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("negative task hold did not panic")
		}
	}()
	s.Run()
}

// BenchmarkTaskDispatch is BenchmarkHoldDispatch for a task: one simulated
// event through the full schedule/dispatch round trip (heap push, kernel
// pop, an inline call of the step function, no coroutine switch). Trace is
// a no-op, as there, to force the slow path.
func BenchmarkTaskDispatch(b *testing.B) {
	s := New()
	s.Trace = func(Time, string) {}
	n := 0
	s.SpawnTaskLazy(func() string { return "bench" }, func(t *Task) {
		for n < b.N {
			n++
			if !t.Hold(1e-9) {
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.RunWindow(math.Inf(1))
}
