package sim

import (
	"runtime"
	"testing"
	"time"
)

// expectNoLeak fails the test unless runtime.NumGoroutine is back at before.
// Finish ends every process coroutine before it returns, so the count should
// already be back; the short poll only absorbs unrelated runtime goroutines.
func expectNoLeak(t *testing.T, before int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGoexitInProcessEndsRun checks that a process body calling
// runtime.Goexit, as t.Fatal does, ends the goroutine that called Run
// instead of hanging the run: the coroutine hand-off passes the Goexit on to
// the kernel's caller, so Run never returns normally.
func TestGoexitInProcessEndsRun(t *testing.T) {
	ended := make(chan bool, 1)
	go func() {
		returned := false
		defer func() { ended <- returned }()
		s := New()
		s.SpawnDaemonLazy(func() string { return "daemon" }, func(p *Proc) {
			for {
				p.Hold(0.5)
			}
		})
		s.Spawn("quitter", func(p *Proc) {
			p.Hold(1)
			runtime.Goexit()
		})
		s.Spawn("bystander", func(p *Proc) { p.Hold(2) })
		s.Run()
		returned = true
	}()
	select {
	case returned := <-ended:
		if returned {
			t.Fatal("Run returned normally after a process called runtime.Goexit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run's goroutine still running 10s after a process called runtime.Goexit")
	}
}

// TestRunLeaksNoGoroutines runs daemons alongside waves of short-lived
// processes, so Run ends with live daemons and a populated worker pool: both
// must be unwound by the time Run returns.
func TestRunLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	for i := 0; i < 3; i++ {
		s.SpawnDaemonLazy(func() string { return "daemon" }, func(p *Proc) {
			for {
				p.Hold(0.25)
			}
		})
	}
	s.SpawnDaemonLazy(func() string { return "blocked" }, func(p *Proc) { p.Block() })
	s.Spawn("driver", func(p *Proc) {
		for wave := 0; wave < 5; wave++ {
			for i := 0; i < 8; i++ {
				s.SpawnLazyID(shortName, int64(i), func(q *Proc) { q.Hold(0.1) })
			}
			p.Hold(1)
		}
	})
	s.Run()
	if len(s.daemons) != 0 || len(s.free) != 0 {
		t.Fatalf("after Run: %d daemons, %d pooled workers left", len(s.daemons), len(s.free))
	}
	expectNoLeak(t, before)
}

// TestInterruptedParkedProcessesLeakNoGoroutines interrupts processes while
// they are parked in a Hold, a Block and a resource queue, some recovering
// the Interrupted unwind and some letting it escape. Their coroutines go
// back to the pool and must be unwound when Run drains.
func TestInterruptedParkedProcessesLeakNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	r := NewResource(s, "cpu")
	var victims []*Proc
	unwound := 0
	for i := 0; i < 12; i++ {
		i := i
		victims = append(victims, s.Spawn("victim", func(p *Proc) {
			if i%2 == 0 {
				defer func() {
					if _, ok := recover().(Interrupted); ok {
						unwound++
					}
				}()
			}
			switch i % 3 {
			case 0:
				p.Hold(100)
			case 1:
				p.Block()
			default:
				r.Use(p, 100)
			}
		}))
	}
	s.Spawn("killer", func(p *Proc) {
		p.Hold(1)
		for _, v := range victims {
			v.Interrupt("crash")
		}
	})
	s.Run()
	if unwound != 6 {
		t.Fatalf("%d victims recovered the interrupt, want 6", unwound)
	}
	expectNoLeak(t, before)
}
