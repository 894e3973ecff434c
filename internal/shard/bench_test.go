package shard

import (
	"fmt"
	"testing"
	"time"

	"hybridship/internal/sim"
)

const benchLA = 1e-3 // lookahead for every benchmark fleet, simulated seconds

// benchFleet builds the balanced synthetic fleet the scaling benchmark runs:
// eight groups of two workers, placed on shard g%shards, so the simulated
// program is identical at every shard count. Each worker burns rounds of
// sub-lookahead holds (many events per window) and every 16th round posts a
// jittered cross-shard message to the next group's shard. Work per group is
// uniform, so the per-window critical path is the balanced ideal — unlike the
// serve fleet of `csq run shardscale`, which carries real imbalance.
func benchFleet(co *Coordinator, rounds int) {
	groups, workers := 8, 2
	shards := co.Shards()
	received := make([]int64, shards) // slot d touched only by shard d's kernel goroutine
	for g := 0; g < groups; g++ {
		for w := 0; w < workers; w++ {
			g, w := g, w
			dst := ((g + 1) % groups) % shards
			co.Sim(g%shards).Spawn(fmt.Sprintf("bench:g%dw%d", g, w), func(p *sim.Proc) {
				for n := 0; n < rounds; n++ {
					p.Hold(1e-5 + 1e-8*float64((g*31+w*7+n*13)%17))
					if n%16 == 0 {
						// Unique prime-weighted jitter keeps exact arrival
						// ties out of the schedule (DESIGN.md §11).
						delay := benchLA + 1e-9*float64(g*797+w*89+n*13+1)
						co.Post(p, dst, delay, func() { received[dst]++ })
					}
				}
			})
		}
	}
}

// BenchmarkFleet measures the parallel kernel end to end on the balanced
// fleet at 1/2/4/8 shards: ns per worker round, plus the kernel dispatch
// rate (events/s) and the schedule-admitted speedup (critical-speedup =
// Sum(per-shard busy)/Sum(per-window slowest shard)) as custom metrics.
// On a 1-core host the wall columns cannot scale; critical-speedup is the
// parallelism the committed schedule exposes regardless.
func BenchmarkFleet(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			co := New(shards)
			co.SetLookahead(benchLA)
			benchFleet(co, b.N)
			b.ResetTimer()
			t0 := time.Now()
			co.Run()
			wall := time.Since(t0).Seconds()
			b.StopTimer()
			if wall > 0 {
				b.ReportMetric(float64(co.Dispatched())/wall, "events/s")
			}
			speedup := 1.0
			if pr := co.Profile(); pr.CriticalEvents > 0 {
				var events int64
				for _, n := range pr.Events {
					events += n
				}
				speedup = float64(events) / float64(pr.CriticalEvents)
			}
			b.ReportMetric(speedup, "critical-speedup")
		})
	}
}

// BenchmarkCrossShardMessage measures one cross-shard message through the
// full path — outbox append, merge sort, tripwire, timer injection, callback
// dispatch on the destination kernel — amortizing the window barrier over 16
// messages per window.
func BenchmarkCrossShardMessage(b *testing.B) {
	co := New(2)
	co.SetLookahead(benchLA)
	var received int64 // touched only by shard 1's kernel goroutine
	co.Sim(0).Spawn("bench:sender", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			co.Post(p, 1, benchLA+1e-9*float64(i%16+1), func() { received++ })
			if i%16 == 15 {
				p.Hold(benchLA)
			}
		}
		b.StopTimer()
	})
	co.Run()
}

// BenchmarkHorizonAdvance measures one full window cycle with nothing to
// overlap: a single process holding exactly one lookahead per round, so every
// round is one window — two RunWindow goroutines, the barrier, and an empty
// merge. This is the fixed per-window cost the lookahead amortizes.
func BenchmarkHorizonAdvance(b *testing.B) {
	co := New(2)
	co.SetLookahead(benchLA)
	co.Sim(0).Spawn("bench:ticker", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Hold(benchLA)
		}
		b.StopTimer()
	})
	co.Run()
}
