//go:build go1.23

// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel in the style of CSIM, the toolkit used by the paper's
// original C++ simulator.
//
// A simulation consists of processes (coroutines) that advance a shared
// virtual clock by holding for intervals of simulated time and by waiting on
// resources and buffers. The kernel runs exactly one process at a time:
// a process executes until it parks (holds, blocks, or finishes), then the
// kernel resumes the process with the earliest pending event. Events with
// equal timestamps fire in schedule order, so a run is fully deterministic.
//
// Actors that only hold, block and wake others (the disk arm) run as kernel
// tasks instead (task.go): a step function the kernel calls inline on each
// wake, with no coroutine, on exactly the schedule of the process it
// replaces. An actor that only holds and then calls something (an arrival
// stream, a fault stream) is a clock, a task built by SpawnClock. One-shot
// work with no schedule of its own, such as a watchdog, is a callback
// scheduled with At (window.go).
//
// The kernel is built for throughput: the event queue is a value-typed
// binary heap (no container/heap interface boxing), a process holding to a
// time before any pending event advances the clock in place without a
// park/dispatch round-trip, control passes between the kernel and a process
// by a direct coroutine switch (iter.Pull) rather than through the Go
// scheduler, the coroutines of finished processes are pooled for reuse, and
// process names can be built lazily so their fmt.Sprintf cost is only paid
// when Trace is enabled.
//
// The coroutine hand-off needs go1.23 (iter.Pull); there is deliberately no
// channel-based fallback for older toolchains.
package sim

import (
	"fmt"
	"iter"
	"math"
	"runtime"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// Simulator owns the virtual clock and the event queue. Create one with New,
// spawn the initial processes, then call Run.
type Simulator struct {
	now    Time
	seq    int64
	events eventHeap

	running int     // live (spawned, not finished) non-daemon processes and live clocks
	daemons []*Proc // live daemon processes (terminated when Run drains)
	free    []*Proc // finished processes whose coroutines await reuse
	failure any     // panic value captured from a process coroutine

	// horizon bounds the in-place Hold fast path when the simulator runs as
	// one shard of a windowed parallel run (see RunWindow): a hold that would
	// carry the clock to or past the horizon must park, so the window loop
	// regains control at the barrier. Sequential runs keep it at +Inf, which
	// makes the extra fast-path comparison always true.
	horizon    Time
	dispatched int64 // kernel dispatches + At callbacks (fast-path holds elided)

	// Trace, when non-nil, receives a line per kernel dispatch. Intended for
	// debugging tests only. Setting Trace disables the in-place Hold fast
	// path, so the trace records every dispatch the reference kernel would
	// make; the schedule itself is identical either way.
	Trace func(t Time, proc string)
}

// New returns an empty simulator at time zero.
func New() *Simulator {
	return &Simulator{horizon: math.Inf(1)}
}

// gcYieldEvery is how many kernel dispatches pass between calls to
// runtime.Gosched, each made just before resuming a process or stepping a
// task. Neither a coroutine switch nor a task step enters the Go
// scheduler, so with GOMAXPROCS=1 a simulation would otherwise hand the
// GC's background mark worker the CPU only when sysmon preempts the kernel
// (every 10 ms). Marking would then span most of a run, and everything
// allocated meanwhile is retained as allocated-black, which raises the peak
// heap by about a third on a Figure 2 cell. Yielding every 64 dispatches
// keeps marking short for a few percent of the dispatch rate. It affects
// only wall-clock scheduling, never the simulated schedule.
const gcYieldEvery = 64

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// event is one pending wakeup. gen guards against stale events delivered to
// a pooled Proc that has since been reused for a new process. An event with
// fn != nil is an At callback or a task wake instead: the kernel runs fn
// inline on the kernel goroutine at the event's timestamp (proc is nil for
// these). A task's fn is its dispatch method, bound once, so tasks share
// the field with At callbacks and the entry stays 40 bytes.
type event struct {
	at   Time
	seq  int64
	proc *Proc
	gen  uint32
	fn   func()
}

// eventHeap is a value-typed binary min-heap ordered by (at, seq). Push and
// pop sift values directly, so steady-state queue operation allocates
// nothing (the backing array grows amortized and is then reused).
type eventHeap []event

func (h eventHeap) before(i, j int) bool { return h[i].before(&h[j]) }

// before reports whether e fires before o.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop the *Proc reference
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.before(l, min) {
			min = l
		}
		if r < n && s.before(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// nextAt returns the timestamp of the earliest pending event, or +Inf.
func (h eventHeap) nextAt() Time {
	if len(h) == 0 {
		return math.Inf(1)
	}
	return h[0].at
}

func (s *Simulator) schedule(p *Proc, at Time) {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %g < %g", at, s.now))
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, proc: p, gen: p.gen})
}

// Proc is a simulated process. All Proc methods must be called from the
// goroutine running the process body.
type Proc struct {
	sim       *Simulator
	name      string
	namef     func() string           // lazy name; resolved on first Name() call
	namefID   func(int64) string      // lazy name from a static formatter + nameID
	nameID    int64                   // argument for namefID
	resume    func() (struct{}, bool) // switches from the kernel into the process
	yield     func(struct{}) bool     // switches from the process back to the kernel
	body      func(p *Proc)
	gen       uint32 // bumped on pool reuse; stale events are discarded
	done      bool
	daemon    bool
	terminate bool

	intr       bool   // undelivered interrupt pending (see Interrupt)
	intrReason string // carried into the Interrupted sentinel
}

// terminated is the sentinel panic used to unwind daemon processes when the
// simulation ends.
type terminated struct{}

// Name returns the process name. A lazily named process (SpawnLazyID,
// SpawnDaemonLazy) builds the name on first use, so the construction cost is
// only paid when someone — typically a Trace hook or a panic message —
// actually asks for it.
func (p *Proc) Name() string {
	if p.name == "" {
		if p.namef != nil {
			p.name = p.namef()
		} else if p.namefID != nil {
			p.name = p.namefID(p.nameID)
		}
	}
	return p.name
}

// Sim returns the simulator the process belongs to.
func (p *Proc) Sim() *Simulator { return p.sim }

// Spawn creates a process that will begin running at the current virtual
// time. The body runs in its own coroutine but only while the kernel has
// handed it control.
func (s *Simulator) Spawn(name string, body func(p *Proc)) *Proc {
	return s.spawn(name, nil, nil, 0, body, false)
}

// SpawnDaemonLazy creates a service process (e.g. a network producer or a
// background load generator) that runs for the lifetime of the simulation,
// with a lazily built name: namef runs only if the name is ever needed.
// Daemons do not keep Run alive and do not count as deadlocked; when the
// event queue drains, Run terminates them by unwinding their coroutines.
func (s *Simulator) SpawnDaemonLazy(namef func() string, body func(p *Proc)) *Proc {
	return s.spawn("", namef, nil, 0, body, true)
}

// SpawnLazyID is Spawn with a lazily built name for the tightest spawn
// loops: the name is a static formatter applied to an int64 id, built only
// if someone asks for it, so the call site captures nothing and the spawn
// allocates nothing once the coroutine pool is warm. Callers with two
// coordinates pack them into the id (e.g. site<<32|index).
func (s *Simulator) SpawnLazyID(namef func(int64) string, id int64, body func(p *Proc)) *Proc {
	return s.spawn("", nil, namef, id, body, false)
}

func (s *Simulator) spawn(name string, namef func() string, namefID func(int64) string, id int64, body func(p *Proc), daemon bool) *Proc {
	var p *Proc
	if n := len(s.free); n > 0 {
		// Reuse the coroutine of a finished process. Safe because only one
		// process runs at a time: the pooled worker is suspended in its
		// yield, and gen invalidates any stale events.
		p = s.free[n-1]
		s.free = s.free[:n-1]
		p.gen++
		p.name, p.namef, p.namefID, p.nameID, p.body = name, namef, namefID, id, body
		p.done, p.daemon, p.terminate = false, daemon, false
		p.intr, p.intrReason = false, "" // a prior body may have finished with an undelivered interrupt
	} else {
		p = &Proc{sim: s, name: name, namef: namef, namefID: namefID, nameID: id, body: body, daemon: daemon}
		p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			s.worker(p)
		})
	}
	if daemon {
		s.daemons = append(s.daemons, p)
	} else {
		s.running++
	}
	s.schedule(p, s.now)
	return p
}

// worker is the reusable coroutine backing one or more successive processes.
// Each resume after the first hands it a new body; it runs the body, puts
// itself in the free pool and yields back to the kernel. It returns, ending
// the coroutine, when the simulator terminates it.
func (s *Simulator) worker(p *Proc) {
	for {
		if p.terminate {
			// Simulation ended before this process (or pooled worker) ran.
			p.done = true
			return
		}
		s.runBody(p)
		if p.terminate {
			// Unwound by the terminated{} sentinel at Run teardown: exit
			// instead of returning to the pool.
			p.done = true
			return
		}
		p.done = true
		if !p.daemon {
			s.running--
		}
		s.free = append(s.free, p)
		p.yield(struct{}{})
	}
}

// runBody executes the process body, converting stray panics into a kernel
// failure and absorbing the terminated{} unwind sentinel.
func (s *Simulator) runBody(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case terminated:
			case Interrupted:
				// An uncaught cancellation simply tears the process down:
				// its in-flight work is abandoned, not a kernel failure.
			default:
				// Hand the panic to the kernel goroutine, which re-panics
				// from Run so callers (and tests) can recover it.
				//hslint:allow simhot -- runs only when a process panics; cold by definition
				s.failure = fmt.Sprintf("sim: process %q panicked: %v", p.Name(), r)
			}
		}
	}()
	p.body(p)
}

// Run executes events until none remain, or until every non-daemon process
// has finished (daemons such as disk servers and load generators would
// otherwise keep the simulation alive forever). It returns the final virtual
// time.
//
// A process body that calls runtime.Goexit (as t.Fatal does) ends the
// goroutine that called Run: the coroutine hand-off passes the Goexit on to
// the kernel's caller, so Run never returns and the deferred calls on that
// goroutine run instead. The simulation cannot be resumed afterwards.
func (s *Simulator) Run() Time {
	for len(s.events) > 0 && s.running > 0 {
		e := s.events.pop()
		if !s.dispatch(e) {
			continue // stale event of a finished (possibly reused) process
		}
		if s.failure != nil {
			panic(s.failure)
		}
	}
	if s.running > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events", s.running))
	}
	s.Finish()
	return s.now
}

// dispatch advances the clock to e.at and delivers one popped event: an At
// callback or a task step runs inline on the kernel goroutine; a process
// wakeup hands control to the process until it parks again. Returns false
// for a stale event (nothing ran).
func (s *Simulator) dispatch(e event) bool {
	if e.fn != nil {
		if e.at < s.now {
			panic("sim: time went backwards")
		}
		s.now = e.at
		s.dispatched++
		e.fn()
		return true
	}
	if e.proc.done || e.gen != e.proc.gen {
		return false
	}
	if e.at < s.now {
		panic("sim: time went backwards")
	}
	s.now = e.at
	s.dispatched++
	if s.Trace != nil {
		s.Trace(s.now, e.proc.Name())
	}
	if s.dispatched%gcYieldEvery == 0 {
		runtime.Gosched()
	}
	e.proc.resume()
	return true
}

// Finish unwinds surviving daemon coroutines and pooled workers so repeated
// simulations do not leak. Run calls it when the event queue drains; a shard
// coordinator calls it once after the last window.
func (s *Simulator) Finish() {
	for _, d := range s.daemons {
		if d.done {
			continue
		}
		d.terminate = true
		d.resume()
	}
	s.daemons = nil
	for _, p := range s.free {
		p.terminate = true
		p.resume()
	}
	s.free = nil
}

// park releases control to the kernel and blocks until resumed. Pending
// interrupts are delivered here: the process unwinds with the Interrupted
// sentinel instead of resuming, and its generation bump invalidates every
// pending event and queue Ref it left behind.
func (p *Proc) park() {
	p.yield(struct{}{})
	if p.terminate {
		panic(terminated{})
	}
	if p.intr {
		reason := p.intrReason
		p.intr, p.intrReason = false, ""
		p.gen++
		panic(Interrupted{Reason: reason})
	}
}

// Hold advances this process's local time by dt seconds of virtual time.
// A non-positive dt yields control without advancing the clock.
//
// Fast path: when every pending event is strictly later than this process's
// wakeup, the kernel would pop that wakeup next and hand control straight
// back — so Hold skips the event queue and the park/dispatch round-trip
// entirely and advances the clock in place. An equal-timestamp pending event
// has an earlier sequence number and must fire first, so ties take the slow
// path; the resulting schedule is identical either way, only the bookkeeping
// is elided. Setting Trace forces the reference slow path so every dispatch
// is observable.
func (p *Proc) Hold(dt Time) {
	if dt < 0 || math.IsNaN(dt) {
		panic(fmt.Sprintf("sim: Hold(%g) in %q", dt, p.Name()))
	}
	s := p.sim
	at := s.now + dt
	if s.Trace == nil && at < s.horizon && s.events.nextAt() > at {
		s.now = at
		return
	}
	s.schedule(p, at)
	p.park()
}

// Yield reschedules the process at the current time, letting other processes
// scheduled for the same instant run first.
func (p *Proc) Yield() { p.Hold(0) }

// Block parks the process without scheduling a wake event; some other process
// must call Unblock to make it runnable again. Callers are expected to
// re-check their wait condition in a loop, as with sync.Cond.
func (p *Proc) Block() { p.park() }

// Unblock schedules a blocked process to resume at the current virtual time.
// It must be called from the goroutine of the currently-running process.
func (p *Proc) Unblock() { p.sim.schedule(p, p.sim.now) }
