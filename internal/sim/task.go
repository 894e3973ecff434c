package sim

// Kernel-run tasks. A Task is an actor that only holds, blocks and wakes
// others — a disk arm, an arrival clock — run without a coroutine: the
// kernel calls its step function inline, on the kernel goroutine, every
// time the task wakes. The step function is a resumable state machine. It
// runs until it reaches a point where the process it replaces would park,
// and returns; the next wake calls it again and it carries on from the
// state it left itself.
//
// A task's schedule is, event for event, the schedule of the equivalent
// process: Wake consumes one seq exactly where Proc.Unblock would, and Hold
// takes the in-place fast path under the same condition as Proc.Hold and
// otherwise schedules one wake event. Its wake events share the event
// entry's At-callback field (a callback bound to the task once), so the
// entry does not grow. A task dispatch is traced under the task's name,
// counted in Dispatched, and takes part in the gcYieldEvery cadence, like a
// process dispatch.
//
// The contract, which the kernel does not check: a step function never
// parks on a Resource or a Buffer (it has no process to park), a task
// cannot be interrupted, and Hold is called only from the task's own step
// function, at most once per return. Tasks are daemons: a pending task
// event never keeps Run alive, and nothing needs unwinding when Run drains.
// The one exception is a live clock (SpawnClock), which counts as a running
// process until it ends.

import (
	"fmt"
	"math"
	"runtime"
)

// Task is a coroutine-free kernel actor; see the file comment.
type Task struct {
	sim   *Simulator
	name  string
	namef func() string // lazy name; resolved on first Name() call
	step  func(t *Task)
	wake  func() // t.dispatch, bound once, so scheduling a wake allocates nothing
}

// SpawnTaskLazy creates a long-lived task that first runs at the current
// virtual time, as a spawned daemon process would. Its name is built by
// namef, which runs only if the name is ever needed.
func (s *Simulator) SpawnTaskLazy(namef func() string, step func(t *Task)) *Task {
	t := &Task{sim: s, namef: namef, step: step}
	t.wake = t.dispatch
	t.Wake()
	return t
}

// Name returns the task name, building a lazy one on first use.
func (t *Task) Name() string {
	if t.name == "" && t.namef != nil {
		t.name = t.namef()
	}
	return t.name
}

// dispatch is the body of every wake event of the task: the kernel has
// already advanced the clock and counted the dispatch.
func (t *Task) dispatch() {
	s := t.sim
	if s.Trace != nil {
		s.Trace(s.now, t.Name())
	}
	if s.dispatched%gcYieldEvery == 0 {
		runtime.Gosched()
	}
	t.step(t)
}

// Wake schedules the task to run at the current virtual time, as
// Proc.Unblock schedules a blocked process.
func (t *Task) Wake() {
	s := t.sim
	s.seq++
	s.events.push(event{at: s.now, seq: s.seq, fn: t.wake})
}

// Hold advances the task's time by dt seconds of virtual time and reports
// whether it did so in place. When it returns true the clock has moved and
// the step function carries straight on; when it returns false a wake event
// is scheduled at now+dt and the step function must return. The fast-path
// condition is Proc.Hold's: Trace unset, the target below the horizon, and
// no pending event at or before the target.
func (t *Task) Hold(dt Time) bool {
	if dt < 0 || math.IsNaN(dt) {
		panic(fmt.Sprintf("sim: Hold(%g) in task %q", dt, t.Name()))
	}
	s := t.sim
	at := s.now + dt
	if s.Trace == nil && at < s.horizon && s.events.nextAt() > at {
		s.now = at
		return true
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, fn: t.wake})
	return false
}

// SpawnClock starts a clock: a task for an actor that only holds and then
// calls something. Each round asks next for a delay, holds for it under
// Hold's fast-path rule, then calls fire; the clock ends when next reports
// false. A zero delay fires within the same dispatch, without a hold, so
// events due at one instant apply together. The clock first runs at the
// current virtual time, as a spawned process would, and takes exactly the
// seqs of the process
//
//	for { dt, ok := next(); if !ok { return }; if dt != 0 { p.Hold(dt) }; fire() }
//
// A daemon clock (live false) never keeps Run alive. A live clock counts as
// a running non-daemon process until it ends, as Spawn's process would.
func (s *Simulator) SpawnClock(namef func() string, live bool, next func() (Time, bool), fire func()) {
	if live {
		s.running++
	}
	held := false
	s.SpawnTaskLazy(namef, func(t *Task) {
		for {
			if held {
				fire()
			}
			dt, ok := next()
			if !ok {
				if live {
					s.running--
				}
				return
			}
			held = true
			if dt != 0 && !t.Hold(dt) {
				return
			}
		}
	})
}
