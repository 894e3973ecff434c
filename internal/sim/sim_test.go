package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHoldAdvancesClock(t *testing.T) {
	s := New()
	var at Time
	s.Spawn("a", func(p *Proc) {
		p.Hold(1.5)
		p.Hold(2.5)
		at = p.Sim().Now()
	})
	end := s.Run()
	if at != 4.0 {
		t.Errorf("process saw time %g, want 4.0", at)
	}
	if end != 4.0 {
		t.Errorf("Run returned %g, want 4.0", end)
	}
}

func TestZeroHoldYields(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	s.Run()
	want := []string{"a1", "b1", "a2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestEqualTimeEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Hold(1.0)
			order = append(order, i)
		})
	}
	s.Run()
	if !sort.IntsAreSorted(order) {
		t.Errorf("equal-time events not FIFO: %v", order)
	}
}

func TestHoldNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic from negative Hold")
		}
	}()
	s := New()
	s.Spawn("a", func(p *Proc) { p.Hold(-1) })
	s.Run()
}

func TestDeadlockDetected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected deadlock panic")
		}
	}()
	s := New()
	b := NewBuffer(s, "b", 1)
	s.Spawn("a", func(p *Proc) {
		b.Get(p) // never satisfied
	})
	s.Run()
}

func TestResourceSerializes(t *testing.T) {
	s := New()
	r := NewResource(s, "cpu")
	var finish []Time
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Use(p, 2.0)
			finish = append(finish, s.Now())
		})
	}
	s.Run()
	want := []Time{2, 4, 6}
	for i := range want {
		if finish[i] != want[i] {
			t.Errorf("finish[%d] = %g, want %g (all: %v)", i, finish[i], want[i], finish)
		}
	}
	if r.BusyTime() != 6.0 {
		t.Errorf("busy time = %g, want 6", r.BusyTime())
	}
	if r.Requests() != 3 {
		t.Errorf("requests = %d, want 3", r.Requests())
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	s := New()
	r := NewResource(s, "cpu")
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Hold(float64(i) * 0.001) // arrive in index order
			r.Use(p, 1.0)
			order = append(order, i)
		})
	}
	s.Run()
	if !sort.IntsAreSorted(order) {
		t.Errorf("resource not FIFO: %v", order)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic releasing idle resource")
		}
	}()
	s := New()
	r := NewResource(s, "cpu")
	s.Spawn("a", func(p *Proc) { r.Release(p) })
	s.Run()
}

func TestBufferPipelines(t *testing.T) {
	s := New()
	b := NewBuffer(s, "pipe", 1)
	var got []int
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Hold(1.0) // production takes 1s per item
			b.Put(p, i)
		}
		b.Close()
	})
	s.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := b.Get(p)
			if !ok {
				return
			}
			p.Hold(1.0) // consumption takes 1s per item
			got = append(got, v.(int))
		}
	})
	end := s.Run()
	if len(got) != 5 {
		t.Fatalf("consumed %d items, want 5", len(got))
	}
	// With 1-item lookahead, stages overlap: total = 1 (fill) + 5 = 6, not 10.
	if end != 6.0 {
		t.Errorf("pipelined end = %g, want 6.0", end)
	}
	for i, v := range got {
		if v != i {
			t.Errorf("got[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestBufferBackpressure(t *testing.T) {
	s := New()
	b := NewBuffer(s, "pipe", 2)
	var produced Time
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			b.Put(p, i)
		}
		produced = s.Now()
		b.Close()
	})
	s.Spawn("consumer", func(p *Proc) {
		for {
			if _, ok := b.Get(p); !ok {
				return
			}
			p.Hold(5.0)
		}
	})
	s.Run()
	// Producer must wait for the consumer to drain before its last puts.
	if produced == 0 {
		t.Errorf("producer never blocked; backpressure missing (produced at %g)", produced)
	}
}

func TestBufferCloseDrains(t *testing.T) {
	s := New()
	b := NewBuffer(s, "pipe", 4)
	var got []int
	s.Spawn("producer", func(p *Proc) {
		b.Put(p, 1)
		b.Put(p, 2)
		b.Close()
	})
	s.Spawn("consumer", func(p *Proc) {
		p.Hold(10)
		for {
			v, ok := b.Get(p)
			if !ok {
				return
			}
			got = append(got, v.(int))
		}
	})
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("drained %v, want [1 2]", got)
	}
}

func TestManyProcessesDeterministic(t *testing.T) {
	run := func(seed int64) []string {
		s := New()
		r := NewResource(s, "cpu")
		rng := rand.New(rand.NewSource(seed))
		var log []string
		for i := 0; i < 50; i++ {
			i := i
			d := rng.Float64()
			s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Hold(d)
				r.Use(p, 0.1)
				log = append(log, fmt.Sprintf("%d@%.6f", i, s.Now()))
			})
		}
		s.Run()
		return log
	}
	a, b := run(42), run(42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("identical seeds produced different schedules")
	}
}

// Property: for any set of jobs on a single-server FIFO resource arriving at
// time 0, the makespan equals the sum of service times and every job's
// completion time equals the prefix sum in spawn order.
func TestQuickResourceMakespan(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		s := New()
		r := NewResource(s, "cpu")
		var sum Time
		finish := make([]Time, len(raw))
		for i, d := range raw {
			i, dt := i, Time(d)/10+0.01
			sum += dt
			s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				r.Use(p, dt)
				finish[i] = s.Now()
			})
		}
		end := s.Run()
		if diff := end - sum; diff > 1e-9 || diff < -1e-9 {
			return false
		}
		var prefix Time
		for i, d := range raw {
			prefix += Time(d)/10 + 0.01
			if diff := finish[i] - prefix; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a buffer never reorders items and never loses or duplicates them,
// regardless of capacity and production/consumption delays.
func TestQuickBufferFIFOIntegrity(t *testing.T) {
	f := func(capRaw uint8, n uint8, prodDelay, consDelay uint8) bool {
		capacity := int(capRaw%8) + 1
		count := int(n % 100)
		s := New()
		b := NewBuffer(s, "pipe", capacity)
		var got []int
		s.Spawn("producer", func(p *Proc) {
			for i := 0; i < count; i++ {
				p.Hold(Time(prodDelay) / 100)
				b.Put(p, i)
			}
			b.Close()
		})
		s.Spawn("consumer", func(p *Proc) {
			for {
				v, ok := b.Get(p)
				if !ok {
					return
				}
				p.Hold(Time(consDelay) / 100)
				got = append(got, v.(int))
			}
		})
		s.Run()
		if len(got) != count {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
