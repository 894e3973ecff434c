package faults_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hybridship/internal/coherence"
	"hybridship/internal/exec"
	"hybridship/internal/faults"
	"hybridship/internal/plan"
	"hybridship/internal/sim"
	"hybridship/internal/workload"
)

// This fuzzer lives in an external test package so it can drive the real
// execution engine (exec imports faults, so the internal package cannot).

// decodeSchedule turns the fuzz input into a bounded scripted fault
// schedule: 4 bytes per event (kind, target, start, duration). Site crashes
// may be permanent (duration 0); network, disk, and client faults always
// recover, as a query blocked on a link or spindle that never returns has no
// bounded outcome to check (and a permanently dead client would leave its
// remaining scripted ops with nothing to assert).
func decodeSchedule(data []byte) []faults.Event {
	var evs []faults.Event
	for len(data) >= 4 && len(evs) < 16 {
		b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
		data = data[4:]
		at := float64(b2) * 0.05
		dur := float64(b3) * 0.05
		switch b0 % 5 {
		case 0:
			evs = append(evs, faults.Event{At: at, Kind: faults.SiteCrash, Site: int(b1) % 2, Duration: dur})
		case 1:
			evs = append(evs, faults.Event{At: at, Kind: faults.NetOutage, Duration: dur + 0.05})
		case 2:
			evs = append(evs, faults.Event{At: at, Kind: faults.NetDegrade, Duration: dur + 0.05, Factor: float64(2 + b1%6)})
		case 3:
			evs = append(evs, faults.Event{At: at, Kind: faults.DiskStall, Site: int(b1) % 2, Disk: 0, Duration: dur + 0.05})
		case 4:
			evs = append(evs, faults.Event{At: at, Kind: faults.ClientCrash, Site: int(b1) % 2, Duration: dur + 0.05})
		}
	}
	return evs
}

// FuzzFaultSchedule feeds arbitrary scripted crash/outage/degrade/stall
// schedules into a replicated 2-way query. Invariants, whatever the
// schedule:
//
//   - nothing panics and every query terminates: it either completes with
//     exactly the fault-free answer or fails loudly with retry/attempt
//     exhaustion — no query is silently lost or answered wrong;
//   - a data-shipping plan, which reads the client cache and faults the
//     rest from the home copy or its replica, gives the same answer under
//     the nil default cache and the explicit one-client config, and reads
//     no stale page;
//   - the run is deterministic: executing the same schedule twice yields a
//     bit-identical Result and error;
//   - the injector's Stats are consistent: no class counts more firings
//     than the schedule holds, downtime only accrues for classes that
//     fired, and downtime still open at the end of the run is excluded.
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte{})                                      // fault-free
	f.Add([]byte{0, 0, 10, 4})                           // early crash of the primary, recovers
	f.Add([]byte{0, 0, 10, 0})                           // permanent primary crash: replica serves
	f.Add([]byte{0, 0, 10, 0, 0, 1, 12, 0})              // both copies dead: query must fail loudly
	f.Add([]byte{1, 0, 4, 40, 3, 1, 8, 20})              // long outage plus a disk stall
	f.Add([]byte{2, 3, 0, 80, 0, 1, 30, 10})             // degraded link, late replica crash
	f.Add([]byte{0, 0, 20, 2, 0, 0, 22, 2, 0, 0, 24, 2}) // overlapping crashes of one site

	run := func(t *testing.T, script []faults.Event, pol plan.Policy, coh *coherence.Config) (exec.Result, error) {
		cat, err := workload.BuildCatalog(4096, 2, workload.PlaceRoundRobin(2, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.ReplicateAll(2, 99); err != nil {
			t.Fatal(err)
		}
		if err := workload.CacheAllFraction(cat, 0.5); err != nil {
			t.Fatal(err)
		}
		params := exec.DefaultParams()
		params.MaxAlloc = true
		cfg := exec.Config{
			Params:  params,
			Catalog: cat,
			Query:   workload.ChainQuery(2, workload.Moderate),
			Next:    workload.Next(workload.Moderate),
			Seed:    1,
			Faults: &faults.Config{
				Seed:        5,
				MaxRetries:  6,
				WarmupDelay: 0.25,
				Script:      script,
			},
			Coherence: coh,
		}
		root := plan.NewDisplay(plan.NewJoin(plan.NewScan(workload.RelName(0)), plan.NewScan(workload.RelName(1))))
		root.Walk(func(n *plan.Node) {
			n.Ann = plan.AllowedAnnotations(n.Kind, pol)[0]
		})
		return exec.Run(cfg, root)
	}

	// runCoherent executes a fixed interleaved read/update sequence through a
	// coherence-enabled session (RF=1, 2 client streams, finite leases) under
	// the same schedule, recording each op's outcome and the protocol's
	// summary — including the staleness oracle's verdict.
	type cohOutcome struct {
		Ops     []string // per op: "ok" or the error string
		Tuples  []int64  // completed queries' result cardinalities
		Summary *coherence.Summary
		Stats   faults.Stats
	}
	runCoherent := func(t *testing.T, script []faults.Event) cohOutcome {
		cat, err := workload.BuildCatalog(4096, 2, workload.PlaceRoundRobin(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.CacheAllFraction(cat, 0.5); err != nil {
			t.Fatal(err)
		}
		params := exec.DefaultParams()
		params.MaxAlloc = true
		ses, err := exec.NewSession(exec.Config{
			Params:  params,
			Catalog: cat,
			Query:   workload.ChainQuery(2, workload.Moderate),
			Next:    workload.Next(workload.Moderate),
			Seed:    1,
			Faults: &faults.Config{
				Seed:       5,
				MaxRetries: 6,
				Script:     script,
			},
			Coherence: &coherence.Config{NumClients: 2, LeaseDuration: 0.8},
		}, exec.SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		root := plan.NewDisplay(plan.NewJoin(plan.NewScan(workload.RelName(0)), plan.NewScan(workload.RelName(1))))
		root.Walk(func(n *plan.Node) {
			n.Ann = plan.AllowedAnnotations(n.Kind, plan.DataShipping)[0]
		})
		bound, err := ses.Bind(root)
		if err != nil {
			t.Fatal(err)
		}
		var out cohOutcome
		note := func(err error) {
			if err == nil {
				out.Ops = append(out.Ops, "ok")
			} else {
				out.Ops = append(out.Ops, err.Error())
			}
		}
		ses.Simulator().Spawn("fuzz:driver", func(p *sim.Proc) {
			for i := 0; i < 6; i++ {
				c := i % 2
				if i == 2 || i == 4 {
					_, err := ses.ExecuteUpdate(p, c, workload.RelName(i%2), i, 2)
					note(err)
				} else {
					qr, err := ses.Execute(p, i, bound, exec.QueryOpts{Client: c})
					note(err)
					if err == nil {
						out.Tuples = append(out.Tuples, qr.ResultTuples)
					}
				}
				p.Hold(0.2)
			}
		})
		ses.Run()
		out.Summary = ses.Coherence().Summary()
		out.Stats = ses.FaultStats()
		return out
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		script := decodeSchedule(data)
		res, err := run(t, script, plan.QueryShipping, nil)

		// No lost queries: a completed run carries the fault-free answer, a
		// failed one says why.
		if err == nil {
			if want := workload.ExpectedResult(2, workload.Moderate); res.ResultTuples != want {
				t.Fatalf("completed with %d tuples, want %d (schedule %v)", res.ResultTuples, want, script)
			}
		} else if !strings.Contains(err.Error(), "failed after") {
			t.Fatalf("unexpected failure mode %q (schedule %v)", err, script)
		}

		// Determinism: same schedule, bit-identical outcome.
		res2, err2 := run(t, script, plan.QueryShipping, nil)
		if !reflect.DeepEqual(res, res2) {
			t.Fatalf("rerun diverged:\n got %+v\nwant %+v (schedule %v)", res2, res, script)
		}
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			t.Fatalf("rerun error diverged: %v vs %v (schedule %v)", err2, err, script)
		}

		// Stats consistency: firings bounded by the schedule (overlapping
		// events collapse, so fewer is legal), downtime only with firings.
		var scheduled faults.Stats
		for _, ev := range script {
			switch ev.Kind {
			case faults.SiteCrash:
				scheduled.SiteCrashes++
			case faults.NetOutage:
				scheduled.NetOutages++
			case faults.NetDegrade:
				scheduled.NetDegrades++
			case faults.DiskStall:
				scheduled.DiskStalls++
			}
		}
		st := res.FaultStats
		if st.SiteCrashes > scheduled.SiteCrashes || st.NetOutages > scheduled.NetOutages ||
			st.NetDegrades > scheduled.NetDegrades || st.DiskStalls > scheduled.DiskStalls {
			t.Fatalf("stats count more firings than scheduled: %+v vs schedule %v", st, script)
		}
		for _, c := range []struct {
			n    int64
			time float64
			what string
		}{
			{st.SiteCrashes, st.SiteDownTime, "site"},
			{st.NetOutages, st.NetDownTime, "net"},
			{st.NetDegrades, st.DegradedTime, "degrade"},
			{st.DiskStalls, st.DiskStallTime, "disk"},
		} {
			if c.time < 0 {
				t.Fatalf("negative %s downtime %g (schedule %v)", c.what, c.time, script)
			}
			if c.n == 0 && c.time != 0 {
				t.Fatalf("%s downtime %g accrued without a firing (schedule %v)", c.what, c.time, script)
			}
		}
		// Without a configured fleet the engine registers no client streams,
		// so scripted client crashes must be exact no-ops there.
		if st.ClientCrashes != 0 || st.ClientDownTime != 0 {
			t.Fatalf("client crashes fired without client hooks: %+v (schedule %v)", st, script)
		}
		var clientScheduled int64
		for _, ev := range script {
			if ev.Kind == faults.ClientCrash {
				clientScheduled++
			}
		}

		// The client-cache read path: a DS plan under the nil default and
		// under the explicit one-client config. Only the explicit config
		// registers client hooks, so the two runs must be identical unless
		// the schedule crashes the client.
		want := workload.ExpectedResult(2, workload.Moderate)
		dsDef, errDef := run(t, script, plan.DataShipping, nil)
		if errDef == nil && dsDef.ResultTuples != want {
			t.Fatalf("DS completed with %d tuples, want %d (schedule %v)", dsDef.ResultTuples, want, script)
		} else if errDef != nil && !strings.Contains(errDef.Error(), "failed after") {
			t.Fatalf("unexpected DS failure mode %q (schedule %v)", errDef, script)
		}
		dsOne, errOne := run(t, script, plan.DataShipping, &coherence.Config{NumClients: 1})
		if errOne == nil {
			if dsOne.ResultTuples != want {
				t.Fatalf("one-client DS completed with %d tuples, want %d (schedule %v)", dsOne.ResultTuples, want, script)
			}
			if o := dsOne.Coherence.Oracle; o.StaleReads != 0 || o.StaleCommittedReads != 0 {
				t.Fatalf("one-client DS oracle tripped: %+v (schedule %v)", o, script)
			}
		} else if !strings.Contains(errOne.Error(), "failed after") && !errors.Is(errOne, exec.ErrClientDown) {
			t.Fatalf("unexpected one-client DS failure mode %q (schedule %v)", errOne, script)
		}
		if clientScheduled == 0 {
			dsOne.Coherence = nil
			if !reflect.DeepEqual(dsOne, dsDef) || fmt.Sprint(errOne) != fmt.Sprint(errDef) {
				t.Fatalf("one-client DS diverged from the nil default:\n got %+v, %v\nwant %+v, %v (schedule %v)",
					dsOne, errOne, dsDef, errDef, script)
			}
		}

		// The coherence-enabled scenario: same schedule against per-client
		// caches with interleaved reads and updates. Every op terminates
		// (ses.Run returning proves the simulation drained), completed reads
		// carry the exact answer, the staleness oracle stays silent, and the
		// whole outcome reproduces bit-identically.
		coh := runCoherent(t, script)
		for _, tuples := range coh.Tuples {
			if want := workload.ExpectedResult(2, workload.Moderate); tuples != want {
				t.Fatalf("coherent query completed with %d tuples, want %d (schedule %v)", tuples, want, script)
			}
		}
		if o := coh.Summary.Oracle; o.StaleReads != 0 || o.StaleCommittedReads != 0 {
			t.Fatalf("staleness oracle tripped: %+v (schedule %v)", o, script)
		}
		if coh.Stats.ClientCrashes > clientScheduled {
			t.Fatalf("more client crashes than scheduled: %d > %d (schedule %v)", coh.Stats.ClientCrashes, clientScheduled, script)
		}
		coh2 := runCoherent(t, script)
		if !reflect.DeepEqual(coh, coh2) {
			t.Fatalf("coherent rerun diverged:\n got %+v\nwant %+v (schedule %v)", coh2, coh, script)
		}
	})
}
