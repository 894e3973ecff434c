package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestInterruptUnwindsAtPark is the cancel-before-fire case: a process parked
// on a long Hold is interrupted well before its wakeup event, and must unwind
// at the interrupt time — not at the original wakeup — with the reason intact.
func TestInterruptUnwindsAtPark(t *testing.T) {
	s := New()
	var (
		when     Time
		reason   string
		survived bool
	)
	victim := s.Spawn("victim", func(p *Proc) {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			in, ok := r.(Interrupted)
			if !ok {
				panic(r)
			}
			when, reason = s.Now(), in.Reason
			panic(r) // the kernel absorbs the sentinel
		}()
		p.Hold(10)
		survived = true
	})
	s.Spawn("killer", func(p *Proc) {
		p.Hold(1)
		victim.Interrupt("test crash")
	})
	end := s.Run()
	if survived {
		t.Fatal("victim survived past the interrupt")
	}
	if when != 1 || reason != "test crash" {
		t.Fatalf("unwound at t=%g reason %q, want t=1 %q", when, reason, "test crash")
	}
	if end != 1 {
		t.Fatalf("Run returned %g, want 1 (the stale Hold event must not advance the clock)", end)
	}
}

// TestInterruptWhileQueuedOnResource cancels a process waiting in a resource
// queue. Its stale Ref must be skipped at Release time: the server goes back
// to the pool (or to the next live waiter) instead of waking the corpse.
func TestInterruptWhileQueuedOnResource(t *testing.T) {
	s := New()
	r := NewResource(s, "cpu")
	var cGotAt Time = -1
	s.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Hold(5)
		r.Release(p)
	})
	waiter := s.Spawn("waiter", func(p *Proc) {
		p.Hold(0.1) // queue second
		r.Acquire(p)
		t.Error("interrupted waiter acquired the resource")
	})
	s.Spawn("killer", func(p *Proc) {
		p.Hold(1)
		waiter.Interrupt("crash")
	})
	s.Spawn("late", func(p *Proc) {
		p.Hold(6) // after the holder released
		r.Acquire(p)
		cGotAt = s.Now()
		r.Release(p)
	})
	s.Run()
	if cGotAt != 6 {
		t.Fatalf("late acquirer got the resource at t=%g, want 6 (no wait: the dead waiter must not pin a server)", cGotAt)
	}
	if r.InUse() || r.QueueLen() != 0 {
		t.Fatalf("resource left inUse=%v queue=%d, want false/0", r.InUse(), r.QueueLen())
	}
}

// TestInterruptWhileQueuedOnBuffer cancels a consumer blocked on an empty
// buffer. A later Put must keep its item for the next live consumer rather
// than waking the unwound one.
func TestInterruptWhileQueuedOnBuffer(t *testing.T) {
	s := New()
	b := NewBuffer(s, "pipe", 1)
	var got any
	dead := s.Spawn("dead-getter", func(p *Proc) {
		if v, ok := b.Get(p); ok {
			t.Errorf("interrupted getter received %v", v)
		}
	})
	s.Spawn("killer", func(p *Proc) {
		p.Hold(1)
		dead.Interrupt("crash")
	})
	s.Spawn("putter", func(p *Proc) {
		p.Hold(2)
		b.Put(p, "page")
	})
	s.Spawn("live-getter", func(p *Proc) {
		p.Hold(3)
		v, ok := b.Get(p)
		if !ok {
			t.Error("live getter saw a closed buffer")
		}
		got = v
	})
	s.Run()
	if got != "page" {
		t.Fatalf("live getter got %v, want the item the dead getter must not have consumed", got)
	}
}

// interruptTieTrace runs a schedule where the victim's own wakeup and its
// interrupt land at the same virtual time, and records the victim's progress
// markers. The outcome must depend only on event sequence numbers, so two
// runs produce identical traces.
func interruptTieTrace() []string {
	s := New()
	var trace []string
	mark := func(m string) { trace = append(trace, fmt.Sprintf("%g:%s", s.Now(), m)) }
	victim := s.Spawn("victim", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(Interrupted); ok {
					mark("unwound")
				}
				panic(r)
			}
		}()
		p.Hold(1)
		mark("after-first-hold")
		p.Hold(1)
		mark("after-second-hold")
	})
	s.Spawn("killer", func(p *Proc) {
		p.Hold(1) // same instant as the victim's first wakeup
		victim.Interrupt("tie")
	})
	s.Run()
	return trace
}

// TestInterruptTieOrderDeterministic pins the tie semantics: the victim's
// wakeup event was scheduled first, so it resumes at t=1 and runs up to its
// next park, where the same-instant interrupt is delivered. Repeat runs must
// agree exactly.
func TestInterruptTieOrderDeterministic(t *testing.T) {
	want := []string{"1:after-first-hold", "1:unwound"}
	for run := 0; run < 2; run++ {
		got := interruptTieTrace()
		if len(got) != len(want) {
			t.Fatalf("run %d: trace %v, want %v", run, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: trace %v, want %v", run, got, want)
			}
		}
	}
}

// TestSelfInterruptCleared exercises ClearInterrupt: a process that defuses a
// pending interrupt aimed at itself must survive its next park, and the stale
// wakeup event left in the heap must neither fire nor advance the clock.
func TestSelfInterruptCleared(t *testing.T) {
	s := New()
	var doneAt Time = -1
	s.Spawn("self", func(p *Proc) {
		p.Interrupt("oops")
		p.ClearInterrupt()
		p.Hold(1) // slow path (the stale wakeup is pending) but no delivery
		doneAt = s.Now()
	})
	s.Run()
	if doneAt != 1 {
		t.Fatalf("process finished at t=%g, want 1", doneAt)
	}
}

// TestInterruptStormPoolReuse tears down many parked processes at once and
// then spawns fresh work that reuses the pooled goroutines. Run under -race
// this checks the unwind/reuse handshake; functionally it checks that pooled
// reuse clears interrupt state and that the simulation drains cleanly.
func TestInterruptStormPoolReuse(t *testing.T) {
	s := New()
	const n = 50
	victims := make([]*Proc, n)
	for i := 0; i < n; i++ {
		victims[i] = s.Spawn(fmt.Sprintf("victim%d", i), func(p *Proc) {
			p.Hold(100)
			t.Error("victim outlived the storm")
		})
	}
	var finished int
	s.Spawn("killer", func(p *Proc) {
		p.Hold(1)
		for _, v := range victims {
			v.Interrupt("storm")
		}
		p.Hold(1)
		// Fresh processes after the storm: pooled workers from the unwound
		// victims are reused and must start with a clean interrupt state.
		for i := 0; i < n; i++ {
			s.Spawn(fmt.Sprintf("fresh%d", i), func(q *Proc) {
				q.Hold(1)
				finished++
			})
		}
	})
	end := s.Run()
	if finished != n {
		t.Fatalf("%d fresh processes finished, want %d", finished, n)
	}
	if end != 3 {
		t.Fatalf("Run returned %g, want 3", end)
	}
}

// TestHoldFastPathZeroAllocs asserts the uncontended Hold fast path stays
// allocation-free: interruptibility costs the hot path nothing.
func TestHoldFastPathZeroAllocs(t *testing.T) {
	s := New()
	var allocs float64
	s.Spawn("bench", func(p *Proc) {
		allocs = testing.AllocsPerRun(200, func() { p.Hold(1e-9) })
	})
	s.Run()
	if allocs != 0 {
		t.Errorf("Hold fast path allocates %.1f per op, want 0", allocs)
	}
}

// TestResourceUseArmedReleasesOnUnwind checks Use's deferred release: a holder
// unwound mid-hold must still free its server via the deferred Release, so a
// queued live waiter proceeds.
func TestResourceUseArmedReleasesOnUnwind(t *testing.T) {
	s := New()
	r := NewResource(s, "cpu")
	var gotAt Time = -1
	holder := s.Spawn("holder", func(p *Proc) {
		r.Use(p, 10)
		t.Error("holder finished its Use despite the interrupt")
	})
	s.Spawn("waiter", func(p *Proc) {
		p.Hold(0.1)
		r.Acquire(p)
		gotAt = s.Now()
		r.Release(p)
	})
	s.Spawn("killer", func(p *Proc) {
		p.Hold(1)
		holder.Interrupt("crash")
	})
	s.Run()
	if gotAt != 1 {
		t.Fatalf("waiter acquired at t=%g, want 1 (deferred release on unwind)", gotAt)
	}
	if r.InUse() {
		t.Fatal("resource left in use")
	}
}

// TestInterruptAtResourceHandoff interrupts a queued waiter at the instant
// Release hands it the server: the hand-off only schedules the waiter's
// wake-up, and the interrupt is delivered first, so the waiter unwinds
// inside Acquire without ever running as the holder. The server must pass on
// to the next waiter — not leak with the unwound one — and no pooled process
// may be left blocked.
func TestInterruptAtResourceHandoff(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	r := NewResource(s, "cpu")
	s.Spawn("holder", func(p *Proc) {
		r.Use(p, 5) // releases at t=5, handing the server to "first"
	})
	first := s.Spawn("first", func(p *Proc) {
		p.Hold(0.1)
		r.Use(p, 1)
		t.Error("interrupted waiter ran as the holder")
	})
	var secondAt Time = -1
	s.Spawn("second", func(p *Proc) {
		p.Hold(0.2)
		r.Use(p, 1)
		secondAt = s.Now()
	})
	s.Spawn("killer", func(p *Proc) {
		// Scheduled at t=5 behind the holder's wake-up and ahead of the
		// wake-up the hand-off schedules for "first".
		p.Hold(5)
		first.Interrupt("crash")
	})
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				t.Fatalf("simulation failed: %v", rec)
			}
		}()
		s.Run()
	}()
	if secondAt != 6 {
		t.Fatalf("second waiter finished at t=%g, want 6 (the server must pass on at t=5)", secondAt)
	}
	if r.InUse() || r.QueueLen() != 0 {
		t.Fatalf("resource left inUse=%v queue=%d, want false/0", r.InUse(), r.QueueLen())
	}
	// Run terminates the pooled workers when it drains; give their
	// goroutines a moment to exit.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
