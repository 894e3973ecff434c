package shard

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hybridship/internal/sim"
)

// lookahead used by every synthetic program in this file; delays below it are
// cross-shard modelling bugs.
const testLA = 0.010

// report is the observable unit of the synthetic fleet program: a worker's
// message as the shard-0 monitor logs it.
type report struct {
	At     float64 // monitor receive time
	Group  int
	Worker int
	N      int
}

// fleetProgram builds a synthetic fleet on c: a fixed set of groups — the
// same simulated program regardless of shard count — placed on shard
// group%Shards. Each group runs `workers` processes holding a deterministic
// irregular schedule and sending `sends` reports to a monitor mailbox on
// shard 0. It returns the monitor's log, filled in when the coordinator
// runs.
func fleetProgram(c *Coordinator, groups, workers, sends int) *[]report {
	log := &[]report{}
	mbox := c.NewMailbox(0)
	total := groups * workers * sends
	for g := 0; g < groups; g++ {
		for w := 0; w < workers; w++ {
			g, w := g, w
			c.Sim(g%c.Shards()).Spawn(fmt.Sprintf("worker/%d/%d", g, w), func(p *sim.Proc) {
				for n := 0; n < sends; n++ {
					// Deterministic, irregular hold pattern keyed by the
					// group — never the shard — so the program is identical
					// at every shard count.
					p.Hold(0.001 + 0.0003*float64((g*31+w*7+n*13)%17))
					// The per-send jitter is unique per (g,w,n), so no two
					// messages ever arrive at the exact same instant: on an
					// exact tie between a shard-local and a remote sender the
					// merge order ((src,seq)) legitimately differs from the
					// sequential kernel's send order — the one measure-zero
					// caveat documented in the package comment.
					mbox.Send(p, testLA+1e-7*float64(g*797+w*89+n*13), report{Group: g, Worker: w, N: n})
				}
			})
		}
	}
	c.Sim(0).Spawn("monitor", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			r := mbox.Recv(p).(report)
			r.At = p.Sim().Now()
			*log = append(*log, r)
		}
	})
	return log
}

// TestFleetEqualAcrossShardCounts runs the identical program at 1, 2, and 4
// shards: the monitor's committed log — receive times included — must be
// exactly equal, shards=1 being the sequential reference.
func TestFleetEqualAcrossShardCounts(t *testing.T) {
	var ref []report
	for _, shards := range []int{1, 2, 4} {
		c := New(shards)
		c.SetLookahead(testLA)
		log := fleetProgram(c, 4, 3, 20)
		c.Run()
		if len(*log) == 0 {
			t.Fatalf("shards=%d: empty log", shards)
		}
		if shards == 1 {
			ref = *log
			continue
		}
		if !reflect.DeepEqual(*log, ref) {
			t.Fatalf("shards=%d: log diverges from sequential reference", shards)
		}
	}
}

// TestFleetDeterministicAcrossGOMAXPROCS pins the tentpole's scheduling
// claim: at a fixed shard count the committed schedule — log and dispatch
// counts — is identical no matter how many OS threads race the windows.
func TestFleetDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var ref []report
	var refDispatched int64
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		c := New(4)
		c.SetLookahead(testLA)
		log := fleetProgram(c, 4, 3, 25)
		c.Run()
		if procs == 1 {
			ref, refDispatched = *log, c.Dispatched()
			continue
		}
		if !reflect.DeepEqual(*log, ref) {
			t.Fatalf("GOMAXPROCS=%d: log diverges", procs)
		}
		if d := c.Dispatched(); d != refDispatched {
			t.Fatalf("GOMAXPROCS=%d: %d dispatches, want %d", procs, d, refDispatched)
		}
	}
}

// TestShardOneTraceMatchesSequential runs the same single-kernel program on a
// 1-shard coordinator and on a bare simulator, with Trace recording every
// dispatch: the traces must be bit-identical, because the coordinator is a
// pass-through at shards=1.
func TestShardOneTraceMatchesSequential(t *testing.T) {
	program := func(s *sim.Simulator) {
		buf := sim.NewBuffer(s, "pipe", 2)
		s.Spawn("producer", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				p.Hold(0.002)
				buf.Put(p, i)
			}
			buf.Close()
		})
		s.Spawn("consumer", func(p *sim.Proc) {
			for {
				v, ok := buf.Get(p)
				if !ok {
					return
				}
				p.Hold(0.001 + 0.0005*float64(v.(int)%3))
			}
		})
	}
	trace := func(s *sim.Simulator) *strings.Builder {
		var b strings.Builder
		s.Trace = func(at float64, proc string) { fmt.Fprintf(&b, "%.9f %s\n", at, proc) }
		return &b
	}

	seq := sim.New()
	seqTrace := trace(seq)
	program(seq)
	seqEnd := seq.Run()

	c := New(1)
	shTrace := trace(c.Sim(0))
	program(c.Sim(0))
	shEnd := c.Run()

	if seqTrace.String() != shTrace.String() || seqTrace.Len() == 0 {
		t.Fatalf("shards=1 trace differs from sequential kernel")
	}
	if seqEnd != shEnd {
		t.Fatalf("end time %g != sequential %g", shEnd, seqEnd)
	}
}

// TestInterruptStormAcrossShards soaks cross-shard cancellation: waves of
// victims on shards 1..3 hold long sleeps while a shard-0 storm process
// interrupts every one of them mid-flight. The run must terminate (victims
// unwind, their pooled goroutines are reclaimed by Finish) and leak no
// goroutines. Run under -race this also checks that refs captured on one
// shard are only dereferenced on their home shard's goroutine.
func TestInterruptStormAcrossShards(t *testing.T) {
	before := runtime.NumGoroutine()
	const shards, victimsPer, waves = 4, 8, 5
	c := New(shards)
	c.SetLookahead(testLA)
	counts := make([]int64, shards) // per-shard so concurrent windows never share a slot
	refs := make([]sim.Ref, 0, (shards-1)*victimsPer)
	for wave := 0; wave < waves; wave++ {
		refs = refs[:0]
		for sh := 1; sh < shards; sh++ {
			sh := sh
			for v := 0; v < victimsPer; v++ {
				p := c.Sim(sh).Spawn(fmt.Sprintf("victim/%d/%d/%d", wave, sh, v), func(p *sim.Proc) {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(sim.Interrupted); !ok {
								panic(r)
							}
							counts[sh]++
						}
					}()
					for {
						p.Hold(0.003)
					}
				})
				refs = append(refs, p.Ref())
			}
		}
		storm := make([]sim.Ref, len(refs))
		copy(storm, refs)
		c.Sim(0).Spawn(fmt.Sprintf("storm/%d", wave), func(p *sim.Proc) {
			for i, ref := range storm {
				dst := 1 + i/victimsPer%(shards-1)
				c.InterruptAfter(p, dst, testLA+0.0001*float64(i%7), ref, "storm")
				p.Hold(0.0005)
			}
		})
		c.Run()
		// Respawn the next wave on the same coordinator? The kernels are torn
		// down by Finish at the end of Run, so each wave gets a fresh fleet.
		if wave < waves-1 {
			c = New(shards)
			c.SetLookahead(testLA)
		}
	}
	var interrupted int64
	for _, n := range counts {
		interrupted += n
	}
	if want := int64(waves * (shards - 1) * victimsPer); interrupted != want {
		t.Fatalf("%d victims interrupted, want %d", interrupted, want)
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak: %d before storm, %d after", before, g)
	}
}

// TestWindowedRunLeaksNoGoroutines runs a fleet with daemons and pooled
// workers on every shard over many windows, then checks that Finish unwinds
// every process coroutine. Each window runs on a fresh goroutine, so the
// coroutines are resumed from a different goroutine every window and
// finally from the coordinator's own in Finish.
func TestWindowedRunLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	const shards = 3
	c := New(shards)
	c.SetLookahead(testLA)
	for sh := 0; sh < shards; sh++ {
		s := c.Sim(sh)
		s.SpawnDaemonLazy(func() string { return fmt.Sprintf("ticker/%d", sh) }, func(p *sim.Proc) {
			for {
				p.Hold(0.004)
			}
		})
		s.Spawn(fmt.Sprintf("spawner/%d", sh), func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				s.Spawn("short", func(q *sim.Proc) { q.Hold(0.003) })
				p.Hold(0.002)
			}
		})
	}
	log := fleetProgram(c, 3, 2, 5)
	c.Run()
	if len(*log) != 3*2*5 {
		t.Fatalf("monitor logged %d reports, want %d", len(*log), 3*2*5)
	}
	if w := c.Profile().Windows; w < 5 {
		t.Fatalf("run took %d windows, want several", w)
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak: %d before the run, %d after Finish", before, g)
	}
}

// TestSameInstantMergeOrder constructs two messages arriving at exactly the
// same virtual instant from different shards: the merge must order them by
// source shard, not by which window goroutine got there first.
func TestSameInstantMergeOrder(t *testing.T) {
	for try := 0; try < 20; try++ {
		c := New(3)
		c.SetLookahead(testLA)
		mbox := c.NewMailbox(0)
		for sh := 1; sh <= 2; sh++ {
			sh := sh
			c.Sim(sh).Spawn(fmt.Sprintf("sender/%d", sh), func(p *sim.Proc) {
				p.Hold(0.005)
				mbox.Send(p, testLA, sh) // both arrive at exactly 0.005 + testLA
			})
		}
		var got []int
		c.Sim(0).Spawn("monitor", func(p *sim.Proc) {
			got = append(got, mbox.Recv(p).(int), mbox.Recv(p).(int))
		})
		c.Run()
		if !reflect.DeepEqual(got, []int{1, 2}) {
			t.Fatalf("try %d: same-instant merge order %v, want [1 2]", try, got)
		}
	}
}

// TestCrossShardDelayBelowLookaheadPanics pins the conservative-safety guard.
func TestCrossShardDelayBelowLookaheadPanics(t *testing.T) {
	c := New(2)
	c.SetLookahead(testLA)
	mbox := c.NewMailbox(0)
	c.Sim(1).Spawn("cheat", func(p *sim.Proc) {
		mbox.Send(p, testLA/2, "too fast")
	})
	c.Sim(0).Spawn("monitor", func(p *sim.Proc) { mbox.Recv(p) })
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "below lookahead") {
			t.Fatalf("recovered %v, want lookahead violation panic", r)
		}
	}()
	c.Run()
}

// TestDeadlockPanicsAcrossShards: a process blocked forever on one shard with
// no pending event anywhere must be reported as a fleet-wide deadlock.
func TestDeadlockPanicsAcrossShards(t *testing.T) {
	c := New(2)
	c.SetLookahead(testLA)
	c.Sim(1).Spawn("stuck", func(p *sim.Proc) { p.Block() })
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "deadlock") {
			t.Fatalf("recovered %v, want deadlock panic", r)
		}
	}()
	c.Run()
}

// TestProcessPanicPropagates: a panic inside a process body on any shard
// surfaces from Coordinator.Run, like the sequential kernel's behavior.
func TestProcessPanicPropagates(t *testing.T) {
	c := New(2)
	c.SetLookahead(testLA)
	c.Sim(1).Spawn("bomb", func(p *sim.Proc) {
		p.Hold(0.001)
		panic("boom")
	})
	c.Sim(0).Spawn("bystander", func(p *sim.Proc) { p.Hold(1.0) })
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("recovered %v, want process panic", r)
		}
	}()
	c.Run()
}

// TestHoldFastPathCapped: within a window, a hold that would cross the
// horizon must park rather than advance the clock in place — otherwise a
// shard could run past the barrier and see cross-shard messages late.
func TestHoldFastPathCapped(t *testing.T) {
	c := New(2)
	c.SetLookahead(testLA)
	mbox := c.NewMailbox(0)
	c.Sim(1).Spawn("sender", func(p *sim.Proc) {
		p.Hold(0.001)
		mbox.Send(p, testLA, "hello")
	})
	var at float64
	c.Sim(0).Spawn("sleeper", func(p *sim.Proc) {
		// With an unbounded fast path this hold would advance shard 0's
		// clock to 10s in place during the first window, and the message
		// arriving at 0.001+testLA would be scheduled into the past.
		p.Hold(10.0)
		if mbox.Len() != 1 {
			t.Errorf("message not delivered during the long hold")
		}
		at = p.Sim().Now()
	})
	c.Run()
	if at != 10.0 {
		t.Fatalf("sleeper woke at %g, want 10.0", at)
	}
}

// TestProfileAccounting: a multi-shard run records windows and per-shard
// busy spans, and the critical path is at most the sum of busy times.
func TestProfileAccounting(t *testing.T) {
	c := New(2)
	c.SetLookahead(testLA)
	fleetProgram(c, 4, 2, 10)
	c.Run()
	pr := c.Profile()
	if pr.Windows == 0 {
		t.Fatalf("no windows recorded")
	}
	var total time.Duration
	for _, b := range pr.Busy {
		total += b
	}
	if pr.Critical <= 0 || pr.Critical > total {
		t.Fatalf("critical %v out of range (total busy %v)", pr.Critical, total)
	}
	var events int64
	for _, n := range pr.Events {
		events += n
	}
	if events != c.Dispatched() {
		t.Fatalf("window events %d != dispatched %d", events, c.Dispatched())
	}
	if pr.CriticalEvents <= 0 || pr.CriticalEvents > events {
		t.Fatalf("critical events %d out of range (total %d)", pr.CriticalEvents, events)
	}
	if math.IsInf(c.Lookahead(), 0) || c.Lookahead() != testLA {
		t.Fatalf("lookahead %g, want %g", c.Lookahead(), testLA)
	}
}
