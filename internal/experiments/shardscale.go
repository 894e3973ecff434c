package experiments

import (
	"fmt"
	"reflect"
	"time"

	"hybridship/internal/catalog"
	"hybridship/internal/disk"
	"hybridship/internal/netsim"
	"hybridship/internal/plan"
	"hybridship/internal/serve"
	"hybridship/internal/shard"
	"hybridship/internal/sim"
)

// The shardscale grid measures the parallel simulation kernel: one big fleet
// run — eight serving groups, each a full serve instance (admission, MPL
// workers, deadlines, breakers) on its own catalog, engine, and LAN —
// executed on 1, 2, 4, and 8 shards of a shard.Coordinator. Groups interact
// across shards over a WAN pipe (netsim.WAN): each group's progress ticker
// reports to a fleet monitor on shard 0, and the monitor broadcasts the
// shutdown interrupts when every group is done. The WAN's propagation
// latency is the coordinator's lookahead.
//
// The grid asserts what the tentpole promises before it reports anything:
// every per-group serve.Result, the per-group engine NetStats/DiskStats, the
// WAN totals, the monitor's checkpoint log, and the fleet completion time
// must be DeepEqual across shard counts, with shards=1 running on the
// sequential reference kernel. Only then are the performance columns —
// wall-clock, events/second, speedups — worth reading.
//
// Two speedup columns, because they answer different questions:
//
//	wall: measured wall-clock of shards=1 divided by this cell's — what this
//	  host actually delivered; it cannot exceed the host's core count.
//	critical-path: Sum(per-shard window events) / Sum(per-window busiest
//	  shard) from the coordinator's profile — the speedup the committed
//	  schedule itself admits with one core per shard, deterministic and
//	  independent of the host. On a 1-core container the wall column shows
//	  windowing overhead while this column shows the parallelism the
//	  sharding actually exposed.
//
// The fleet is fault-free with MaxAlloc memory (joins never spill, so disk
// write-back stays quiet) and every cross-group message is jittered onto a
// group-unique time grid: exact cross-shard arrival ties are the one point
// where merge order may legitimately differ from the sequential kernel's
// send order (DESIGN.md §11), so the fleet keeps them out of the committed
// schedule by construction.

const (
	shardGroups     = 8     // serving groups; shard counts must divide into them
	shardWANLatency = 0.005 // seconds; the lookahead
	shardWANBw      = 1e9   // bits per second
	shardTickEvery  = 0.25  // base ticker period, seconds
	shardCtrlBytes  = 128   // progress/shutdown message size
	shardLoadMult   = 1.5   // offered load multiplier vs estimated capacity
)

// shardCounts is the grid's x axis.
func shardCounts() []int { return []int{1, 2, 4, 8} }

// shardQueries is the offered stream length per group.
func (c Config) shardQueries() int {
	if c.Quick {
		return 24
	}
	return 96
}

// fleetCheckpoint is one row of the monitor's progress log: the virtual time
// at which the fleet-wide completed count crossed another step. The log is
// ordered by the merged mailbox schedule, so it is sensitive to exactly the
// cross-shard ordering the tentpole must keep deterministic.
type fleetCheckpoint struct {
	At        float64
	Completed int64
}

// shardTickName is the static lazy-name formatter for the fleet tickers.
func shardTickName(id int64) string { return fmt.Sprintf("fleet:tick%d", id) }

// shardProgress is a ticker's report to the fleet monitor.
type shardProgress struct {
	group     int
	completed int64
	done      bool
}

// shardOutcome is one fleet run's complete observable state (compared across
// shard counts) plus its performance measurements (not compared).
type shardOutcome struct {
	perGroup    []serve.Result
	net         []netsim.Stats
	dsk         []map[catalog.SiteID]disk.Stats
	wan         netsim.Stats
	checkpoints []fleetCheckpoint
	elapsed     float64
	completed   int64

	dispatched int64
	wall       float64
	profile    shard.Profile
}

// shardFleet runs the fleet on the given shard count.
func (c Config) shardFleet(op overloadPolicy, shards int) (*shardOutcome, error) {
	co := shard.New(shards)
	wan := netsim.NewWAN(shardWANLatency, shardWANBw, shardGroups+1)
	co.SetLookahead(wan.Latency())
	mbox := co.NewMailbox(0)
	out := &shardOutcome{}

	servers := make([]*serve.Server, shardGroups)
	tickRefs := make([]sim.Ref, shardGroups)
	for g := 0; g < shardGroups; g++ {
		g := g
		sh := g % shards
		ex, err := servingExec(seedFor(c.Seed, int64(g), 80), nil)
		if err != nil {
			return nil, err
		}
		ex.Kernel = co.Sim(sh)
		srv, err := serve.Start(op.serveConfig(ex, seedFor(c.Seed, int64(g), 81), c.shardQueries(), shardLoadMult))
		if err != nil {
			return nil, err
		}
		servers[g] = srv
		// Each group's period and phase sit on a group-unique grid, so no
		// two reports from different groups ever arrive at the exact same
		// instant — cross-shard merge ties stay out of the schedule.
		period := shardTickEvery * (1 + 1e-5*float64(g+1))
		phase := shardTickEvery/2 + 1e-6*float64(g+1)
		tick := co.Sim(sh).SpawnLazyID(shardTickName, int64(g), func(p *sim.Proc) {
			p.Hold(phase)
			for {
				mbox.Send(p, wan.Charge(g, shardCtrlBytes, false),
					shardProgress{group: g, completed: srv.Completed(), done: srv.Done()})
				p.Hold(period)
			}
		})
		tickRefs[g] = tick.Ref()
	}

	cpStep := int64(shardGroups*c.shardQueries()) / 16
	if cpStep < 1 {
		cpStep = 1
	}
	co.Sim(0).Spawn("fleet:monitor", func(p *sim.Proc) {
		completed := make([]int64, shardGroups)
		done := make([]bool, shardGroups)
		remaining := shardGroups
		nextMark := cpStep
		for remaining > 0 {
			m := mbox.Recv(p).(shardProgress)
			completed[m.group] = m.completed
			if m.done && !done[m.group] {
				done[m.group] = true
				remaining--
			}
			var total int64
			for _, v := range completed {
				total += v
			}
			for total >= nextMark {
				out.checkpoints = append(out.checkpoints, fleetCheckpoint{At: p.Sim().Now(), Completed: total})
				nextMark += cpStep
			}
		}
		// Every group is done: broadcast shutdown to the tickers. The
		// interrupts all land at the same delay, so the fleet quiesces at a
		// single deterministic instant — the run's completion time.
		for g, ref := range tickRefs {
			co.InterruptAfter(p, g%shards, wan.Charge(shardGroups, shardCtrlBytes, false), ref, "fleet complete")
		}
		out.elapsed = p.Sim().Now() + wan.Delay(shardCtrlBytes)
	})

	//hslint:allow nodeterm -- wall-clock measurement of the run; printed in the report, never simulated state
	t0 := time.Now()
	co.Run()
	//hslint:allow nodeterm -- wall-clock measurement of the run; printed in the report, never simulated state
	out.wall = time.Since(t0).Seconds()

	for _, srv := range servers {
		res := srv.Finish(out.elapsed)
		out.perGroup = append(out.perGroup, res)
		out.net = append(out.net, srv.Session().NetStats())
		out.dsk = append(out.dsk, srv.Session().DiskStats())
		out.completed += res.Completed
	}
	out.wan = wan.Stats()
	out.dispatched = co.Dispatched()
	out.profile = co.Profile()
	return out, nil
}

// shardCompare asserts one cell's observable fleet state equals the
// sequential reference's.
func shardCompare(shards int, got, want *shardOutcome) error {
	check := func(name string, a, b any) error {
		if !reflect.DeepEqual(a, b) {
			return fmt.Errorf("experiments: shards=%d %s diverges from shards=1", shards, name)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		a, b any
	}{
		{"per-group results", got.perGroup, want.perGroup},
		{"per-group net stats", got.net, want.net},
		{"per-group disk stats", got.dsk, want.dsk},
		{"WAN stats", got.wan, want.wan},
		{"checkpoint log", got.checkpoints, want.checkpoints},
		{"fleet completion time", got.elapsed, want.elapsed},
	} {
		if err := check(c.name, c.a, c.b); err != nil {
			return err
		}
	}
	return nil
}

// ShardScale runs the fleet at every shard count, one after another so the
// wall-clock columns measure one fleet at a time, asserts equality against
// the sequential reference, and reports the scaling table plus, as a -v
// table, the fleet monitor's checkpoint log.
func (c Config) ShardScale() (*Report, error) {
	policies, err := c.overloadCompile()
	if err != nil {
		return nil, err
	}
	var op overloadPolicy
	for _, p := range policies {
		if p.pol == plan.HybridShipping {
			op = p
		}
	}
	cells := &Table{}
	var base *shardOutcome
	for _, shards := range shardCounts() {
		out, err := c.shardFleet(op, shards)
		if err != nil {
			return nil, err
		}
		if shards == 1 {
			base = out
		} else if err := shardCompare(shards, out, base); err != nil {
			return nil, err
		}
		var wallSpeedup float64
		if base.wall > 0 && out.wall > 0 {
			wallSpeedup = base.wall / out.wall
		}
		criticalSpeedup := 1.0
		if out.profile.CriticalEvents > 0 {
			var events int64
			for _, n := range out.profile.Events {
				events += n
			}
			criticalSpeedup = float64(events) / float64(out.profile.CriticalEvents)
		}
		cells.Rows = append(cells.Rows, Row{Fields: []Field{
			{"shards", "%6d", shards},
			{"wall", " %7.3f", out.wall},
			{"events/s", " %9.0f", float64(out.dispatched) / out.wall},
			{"windows", " %7d", out.profile.Windows},
			{"speedup(wall)", " %13.2f", wallSpeedup},
			{"speedup(critical-path)", " %22.2f", criticalSpeedup},
		}})
	}
	cells.Title = fmt.Sprintf("Shardscale: one fleet run (%d serving groups x %d queries) on 1/2/4/8 shards\n"+
		"  fleet completed %d queries by t=%.3fs (virtual); identical at every shard count\n"+
		"  shards  wall(s)   events/s   windows  speedup(wall)  speedup(critical-path)",
		shardGroups, c.shardQueries(), base.completed, base.elapsed)
	log := &Table{Title: "  checkpoint log (virtual time at each fleet-wide completion step):", Verbose: true}
	for _, cp := range base.checkpoints {
		log.Rows = append(log.Rows, Row{Fields: []Field{
			{"t", "    t=%8.3fs", cp.At}, {"completed", " completed=%d", cp.Completed},
		}})
	}
	return &Report{Tables: []*Table{cells, log}}, nil
}
