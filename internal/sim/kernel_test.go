package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestFastPathEqualTimestampOrder pins the fast path's tie rule: a Hold that
// lands exactly on the head event's timestamp must NOT bypass the queue,
// because the pending event has the earlier sequence number and schedule
// order says it fires first. The observed interleaving must match the
// reference kernel (Trace forces the slow path) exactly.
func TestFastPathEqualTimestampOrder(t *testing.T) {
	run := func(forceSlow bool) []string {
		var order []string
		s := New()
		if forceSlow {
			s.Trace = func(Time, string) {}
		}
		// a and b repeatedly hold to identical timestamps; c holds to the
		// same instants from a later spawn. Every wakeup is a tie.
		for _, name := range []string{"a", "b", "c"} {
			name := name
			s.Spawn(name, func(p *Proc) {
				for i := 0; i < 5; i++ {
					p.Hold(1.0)
					order = append(order, fmt.Sprintf("%s@%v", name, s.Now()))
				}
			})
		}
		s.Run()
		return order
	}
	fast, slow := run(false), run(true)
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("fast path changed the schedule:\nfast %v\nslow %v", fast, slow)
	}
	// Spot-check the invariant itself: at every instant the spawn order
	// a, b, c is preserved.
	for i := 0; i < len(fast); i += 3 {
		if fast[i][0] != 'a' || fast[i+1][0] != 'b' || fast[i+2][0] != 'c' {
			t.Fatalf("ties not fired in schedule order: %v", fast[i:i+3])
		}
	}
}

// TestPooledProcessReuse drives many short-lived processes through the
// worker pool and checks that no stale wakeup from a finished incarnation
// leaks into its successor.
func TestPooledProcessReuse(t *testing.T) {
	s := New()
	var ran int
	s.Spawn("driver", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			s.SpawnLazyID(func(int64) string { return "short" }, 0, func(q *Proc) {
				q.Hold(0.001)
				ran++
			})
			p.Hold(0.0005) // overlap successive short-lived processes
		}
		p.Hold(1)
	})
	s.Run()
	if ran != 1000 {
		t.Fatalf("ran %d short-lived bodies, want 1000", ran)
	}
}

// TestLazyNameNotBuiltWithoutTrace checks that SpawnLazyID never materializes
// the name when nothing asks for it, and resolves it exactly once when
// something does.
func TestLazyNameNotBuiltWithoutTrace(t *testing.T) {
	s := New()
	builds := 0
	var got string
	s.SpawnLazyID(func(int64) string { builds++; return "lazy/0" }, 0, func(p *Proc) {
		p.Hold(1)
	})
	s.Spawn("observer", func(p *Proc) {
		p.Hold(2)
	})
	s.Run()
	if builds != 0 {
		t.Fatalf("name built %d times with no consumer, want 0", builds)
	}

	s2 := New()
	var p2 *Proc
	s2.SpawnLazyID(func(int64) string { builds++; return "lazy/1" }, 1, func(p *Proc) {
		p2 = p
		p.Hold(1)
	})
	s2.Run()
	got = p2.Name()
	_ = p2.Name()
	if builds != 1 || got != "lazy/1" {
		t.Fatalf("lazy name resolved %d times as %q, want once as lazy/1", builds, got)
	}
}

// TestTraceSeesEveryDispatch checks that with Trace set, every Hold goes
// through the reference dispatch path and is reported.
func TestTraceSeesEveryDispatch(t *testing.T) {
	s := New()
	var events []string
	s.Trace = func(at Time, name string) {
		events = append(events, fmt.Sprintf("%s@%v", name, at))
	}
	s.Spawn("solo", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Hold(1)
		}
	})
	s.Run()
	// The spawn dispatch at t=0 is reported too, then one dispatch per Hold.
	want := []string{"solo@0", "solo@1", "solo@2", "solo@3"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("trace saw %v, want %v", events, want)
	}
}
