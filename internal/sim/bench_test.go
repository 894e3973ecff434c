package sim

import (
	"fmt"
	"testing"
)

// BenchmarkHoldFastPath measures one simulated event on the in-place Hold
// fast path: the running process advances the clock without touching the
// event queue or parking. This is the steady-state cost of an uncontended
// Hold (CPU charges, disk service legs) after this PR.
func BenchmarkHoldFastPath(b *testing.B) {
	s := New()
	s.Spawn("bench", func(p *Proc) {
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Hold(1e-9)
		}
		b.StopTimer()
	})
	s.Run()
}

// BenchmarkHoldDispatch measures one simulated event through the full
// park/dispatch round-trip (heap push, kernel pop, two coroutine switches). Trace
// is set to a no-op to force the reference slow path, so this is also the
// per-event cost of the pre-fast-path kernel minus its container/heap
// boxing.
func BenchmarkHoldDispatch(b *testing.B) {
	s := New()
	s.Trace = func(Time, string) {}
	s.Spawn("bench", func(p *Proc) {
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Hold(1e-9)
		}
		b.StopTimer()
	})
	s.Run()
}

// BenchmarkPingPong measures two processes alternating through a shared
// resource-free rendezvous: every Hold has a pending equal-or-earlier event,
// so each iteration is two genuine kernel dispatches plus heap traffic.
func BenchmarkPingPong(b *testing.B) {
	s := New()
	spawn := func(name string) {
		s.Spawn(name, func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Hold(1e-6)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	spawn("a")
	spawn("b")
	s.Run()
}

// shortName is the static formatter for short-lived bench processes: passing
// it with an int64 id (SpawnLazyID) instead of capturing the loop variable in
// a closure is what makes the spawn path allocation-free.
func shortName(id int64) string { return fmt.Sprintf("short/%d", id) }

// BenchmarkSpawnShortLived measures the lifecycle of a short-lived process:
// after the first few iterations every spawn reuses a pooled coroutine, and
// the lazy name — a static formatter plus an id, so the call site captures
// nothing — is never built. 0 allocs/op, asserted by
// TestSpawnShortLivedZeroAlloc.
func BenchmarkSpawnShortLived(b *testing.B) {
	s := New()
	s.Spawn("driver", func(p *Proc) {
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.SpawnLazyID(shortName, int64(i), func(q *Proc) {})
			p.Hold(1e-9) // let the spawned process run and return to the pool
		}
		b.StopTimer()
	})
	s.Run()
}

// TestSpawnShortLivedZeroAlloc pins the BenchmarkSpawnShortLived result:
// once the coroutine pool and event heap are warm, spawning a short-lived
// process allocates nothing.
func TestSpawnShortLivedZeroAlloc(t *testing.T) {
	s := New()
	var allocs float64
	s.Spawn("driver", func(p *Proc) {
		for i := 0; i < 16; i++ { // warm the pool, heap, and free list
			s.SpawnLazyID(shortName, int64(i), func(q *Proc) {})
			p.Hold(1e-9)
		}
		allocs = testing.AllocsPerRun(100, func() {
			s.SpawnLazyID(shortName, 42, func(q *Proc) {})
			p.Hold(1e-9)
		})
	})
	s.Run()
	if allocs != 0 {
		t.Fatalf("short-lived spawn allocates %v per op, want 0", allocs)
	}
}

// BenchmarkResourceUse measures charging one uncontended resource: acquire,
// hold (fast path), release.
func BenchmarkResourceUse(b *testing.B) {
	s := New()
	r := NewResource(s, "cpu")
	s.Spawn("bench", func(p *Proc) {
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Use(p, 1e-9)
		}
		b.StopTimer()
	})
	s.Run()
}

// BenchmarkEventHeap measures raw push/pop traffic on the value-typed event
// heap at a realistic queue depth.
func BenchmarkEventHeap(b *testing.B) {
	var h eventHeap
	procs := make([]*Proc, 64)
	for i := range procs {
		procs[i] = &Proc{}
	}
	for i := 0; i < 64; i++ {
		h.push(event{at: float64(i%7) * 0.001, seq: int64(i), proc: procs[i]})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := h.pop()
		e.at += 0.01
		e.seq = int64(64 + i)
		h.push(e)
	}
}
