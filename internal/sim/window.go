package sim

// Windowed execution. A shard coordinator (internal/shard) runs several
// simulators in lockstep windows: each window, every shard advances
// independently through the events strictly below a shared horizon, then all
// shards barrier and exchange cross-shard messages timestamped at or beyond
// the horizon. This file is the kernel half of that protocol; the coordinator
// half (horizon computation, the barrier, deterministic message merge) lives
// in internal/shard so the kernel stays free of goroutine fan-out.

// At schedules fn to run on the kernel goroutine at virtual time t, which
// must not be in the past. fn runs between process dispatches, with the
// clock set to t, and must not park (it has no process of its own); it is
// counted in Dispatched but not traced. Callbacks are the kernel's one-shot
// timers: a shard coordinator injects cross-shard deliveries with them, and
// the engine's watchdogs fire through them. A caller that binds fn once (a
// method value stored at construction) arms it without allocating. Like
// daemon events, pending callbacks do not keep Run alive: a callback
// scheduled after the last non-daemon process finishes never runs.
func (s *Simulator) At(t Time, fn func()) {
	if t < s.now {
		panic("sim: At: scheduling into the past")
	}
	s.seq++
	s.events.push(event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run dt seconds of virtual time from now.
func (s *Simulator) After(dt Time, fn func()) { s.At(s.now+dt, fn) }

// Running reports the number of live non-daemon processes and live clocks. A
// windowed run is complete when the sum of Running over all shards reaches
// zero.
func (s *Simulator) Running() int { return s.running }

// NextEventTime reports the timestamp of the earliest pending event, or +Inf
// when the queue is empty. Stale events of finished processes are counted —
// they make the result conservative (never later than the true next event),
// which only shrinks the coordinator's horizon, never breaks it.
func (s *Simulator) NextEventTime() Time {
	return s.events.nextAt()
}

// Dispatched reports the cumulative number of kernel dispatches and At
// callbacks. In-place fast-path holds are elided by design (they cost no
// kernel work), so this counts the events the kernel actually processed —
// the unit the shardscale grid's events/sec metric is built on.
func (s *Simulator) Dispatched() int64 { return s.dispatched }

// RunWindow processes every pending event with a timestamp strictly below
// horizon and returns the timestamp of the earliest remaining event (+Inf if
// none). Unlike Run it does not stop when the shard's own non-daemon
// processes finish: a shard whose local work is done may still host daemons
// and mailboxes serving other shards, so liveness is the coordinator's global
// decision, not a local one. While the window is open the Hold fast path is
// capped at the horizon, so a process holding past it parks and the window
// closes with the shard's clock at its last dispatched event.
//
// A failure captured from a process coroutine re-panics here, on the
// goroutine driving this shard's window; the coordinator recovers it and
// re-raises deterministically.
func (s *Simulator) RunWindow(horizon Time) Time {
	s.horizon = horizon
	for s.events.nextAt() < horizon {
		e := s.events.pop()
		if !s.dispatch(e) {
			continue
		}
		if s.failure != nil {
			panic(s.failure)
		}
	}
	return s.NextEventTime()
}
