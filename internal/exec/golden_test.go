package exec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/disk"
	"hybridship/internal/faults"
	"hybridship/internal/plan"
	"hybridship/internal/seedmix"
	"hybridship/internal/sim"
	"hybridship/internal/workload"
)

// The engine goldens are the execution oracle. Each scenario below ran on
// the page-at-a-time reference engine that produced results_full.txt, and
// testdata/engine_golden.json records what it measured: the scenario's full
// outcome (Result, or the session/multi-query equivalent, disk and network
// counters included) and a SHA-256 of its dispatch trace — every kernel
// dispatch's virtual time and process name, in order. The batch engine must
// reproduce both exactly, so a change that moves one charge, one disk
// request or one process wake-up by a single event fails here even when
// the end-to-end numbers happen to agree.
//
// Regenerate only for a deliberate change to simulated behaviour:
//
//	go test ./internal/exec -run TestEngineGoldenCapture -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/engine_golden.json from the current engine")

const goldenPath = "testdata/engine_golden.json"

// goldenEntry is one scenario's recorded outcome.
type goldenEntry struct {
	Result      json.RawMessage `json:"result"`
	TraceSHA256 string          `json:"trace_sha256"`
	TraceEvents int             `json:"trace_events"`
}

// goldenScenario runs one configuration end to end and returns its outcome.
// trace is installed as Config.Trace (nil for the untraced run).
type goldenScenario struct {
	name string
	run  func(t *testing.T, trace func(sim.Time, string)) any
}

// traceHash folds a dispatch trace into a SHA-256 without keeping it.
type traceHash struct {
	h   hash.Hash
	n   int
	buf []byte
}

func newTraceHash() *traceHash { return &traceHash{h: sha256.New()} }

func (th *traceHash) record(at sim.Time, name string) {
	th.buf = strconv.AppendFloat(th.buf[:0], float64(at), 'g', -1, 64)
	th.buf = append(th.buf, ' ')
	th.buf = append(th.buf, name...)
	th.buf = append(th.buf, '\n')
	th.h.Write(th.buf)
	th.n++
}

func (th *traceHash) sum() string { return hex.EncodeToString(th.h.Sum(nil)) }

// measureGolden runs s untraced and traced. The two outcomes must agree
// (tracing forces the reference kernel path and per-part charges, which may
// not move a single event), and the traced run supplies the trace digest.
func measureGolden(t *testing.T, s goldenScenario) goldenEntry {
	t.Helper()
	plain, err := json.Marshal(s.run(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	th := newTraceHash()
	traced, err := json.Marshal(s.run(t, th.record))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, traced) {
		t.Fatalf("%s: traced outcome differs from untraced:\n traced %s\nuntraced %s", s.name, traced, plain)
	}
	return goldenEntry{Result: plain, TraceSHA256: th.sum(), TraceEvents: th.n}
}

func loadGoldens(t *testing.T) map[string]goldenEntry {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]goldenEntry
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// checkGolden runs the named scenario and compares it with its golden.
func checkGolden(t *testing.T, name string) {
	t.Helper()
	if *updateGolden {
		t.Skip("capturing goldens")
	}
	s, ok := findGoldenScenario(name)
	if !ok {
		t.Fatalf("no golden scenario %q", name)
	}
	want, ok := loadGoldens(t)[name]
	if !ok {
		t.Fatalf("%s: missing from %s", name, goldenPath)
	}
	got := measureGolden(t, s)
	var wantRes bytes.Buffer
	if err := json.Compact(&wantRes, want.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Result, wantRes.Bytes()) {
		t.Errorf("%s: outcome diverged from the reference engine:\n got %s\nwant %s", name, got.Result, wantRes.Bytes())
	}
	if got.TraceSHA256 != want.TraceSHA256 || got.TraceEvents != want.TraceEvents {
		t.Errorf("%s: dispatch trace diverged from the reference engine: got %d events sha256 %s, want %d events sha256 %s",
			name, got.TraceEvents, got.TraceSHA256, want.TraceEvents, want.TraceSHA256)
	}
}

// TestVectorizedBitIdenticalGrid checks the engine against the reference
// goldens across policies (QS, DS, and a mixed hybrid plan) and both join
// memory allocations (min-alloc forces the spill passes). The test names
// and the batch=0 coordinate are those of the reference-vs-batch suite the
// goldens were captured from, so each cell's history stays traceable.
func TestVectorizedBitIdenticalGrid(t *testing.T) {
	for _, pol := range []string{"qs", "ds", "hy"} {
		for _, maxAlloc := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/batch=0/maxalloc=%v", pol, maxAlloc), func(t *testing.T) {
				checkGolden(t, fmt.Sprintf("grid/%s/maxalloc=%v", pol, maxAlloc))
			})
		}
	}
}

// TestVectorizedBitIdenticalFaults extends the check to failure-aware
// execution: a scripted mid-query crash (abort, backoff, retry) and a
// stochastic crash/restart stream must play out exactly as on the reference
// engine — retries, aborted work, backoff time and fault stats included.
func TestVectorizedBitIdenticalFaults(t *testing.T) {
	for _, name := range []string{"scripted-crash", "chaos"} {
		t.Run(name, func(t *testing.T) { checkGolden(t, "faults/"+name) })
	}
}

// TestVectorizedTraceIdentical pins one spilling query's full dispatch log.
func TestVectorizedTraceIdentical(t *testing.T) { checkGolden(t, "trace/qs-4way-minalloc") }

// TestVectorizedPartialPageTraceIdentical locks down calibration when
// relation cardinalities are not multiples of tuples-per-page, so every scan
// ends on a partial page. The trailing build-page hash charge then has no
// later batch to flush it, which is exactly the case that once let a join
// spawn its probe-side producer daemon before realizing the charge.
func TestVectorizedPartialPageTraceIdentical(t *testing.T) {
	for _, pol := range []plan.Policy{plan.DataShipping, plan.QueryShipping} {
		for _, maxAlloc := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/maxalloc=%v", pol, maxAlloc), func(t *testing.T) {
				checkGolden(t, fmt.Sprintf("partial-page/%v/maxalloc=%v", pol, maxAlloc))
			})
		}
	}
}

// TestVectorizedDeterministic checks the loaded runs against their goldens
// and then repeats one: under -race this also checks the engine-wide batch
// and table pools stay confined to the simulation's cooperative scheduling.
func TestVectorizedDeterministic(t *testing.T) {
	checkGolden(t, "loaded/qs-5way-minalloc")
	checkGolden(t, "loaded/two-servers")
	s, _ := findGoldenScenario("loaded/qs-5way-minalloc")
	ref := s.run(t, nil)
	for i := 0; i < 3; i++ {
		if got := s.run(t, nil); !reflect.DeepEqual(got, ref) {
			t.Fatalf("run %d diverged:\n got %+v\nwant %+v", i+1, got, ref)
		}
	}
}

// TestVectorizedSessionMatches checks the serving path: a Session's
// QueryResult, end time and traffic match the reference engine's.
func TestVectorizedSessionMatches(t *testing.T) { checkGolden(t, "session/qs-3way") }

// TestEngineGolden covers the remaining scenarios: selections and grouped
// aggregation, a coherent two-client session with an update and crashes, a
// coherent session under every fault class at once, scripted faults that tie
// with each other and with a stochastic crash, a replicated catalog losing
// its primary, and a multi-query run.
func TestEngineGolden(t *testing.T) {
	for _, name := range []string{
		"select-agg/QS", "select-agg/DS",
		"coherent/ds-2clients-update-crashes",
		"faults/every-class",
		"faults/script-ties",
		"replica/rf2-permanent-primary-crash",
		"multi/staggered-mixed-policies",
	} {
		t.Run(name, func(t *testing.T) { checkGolden(t, name) })
	}
}

// TestFig8HYTwoServerCell pins the Figure 8 cell (`csq run -quick -reps 2
// -seed 42 fig8`, HY at 2 servers, repetition 1) on which the batch engine
// once diverged from the reference: a spilling join sealed its first
// partition page — taking a chunk from the site's shared temp region —
// before its pending CPU charges had elapsed, so two joins on one server
// swapped temp extents and the disk saw a different request stream
// (response time 56.34861 s instead of 56.45878 s).
func TestFig8HYTwoServerCell(t *testing.T) { checkGolden(t, "fig8/hy-2servers-rep1") }

// TestEngineGoldenCapture rewrites the golden file under -update and
// otherwise checks that the file and the scenario table name the same cases.
func TestEngineGoldenCapture(t *testing.T) {
	scenarios := engineGoldenScenarios()
	if *updateGolden {
		out := make(map[string]goldenEntry, len(scenarios))
		for _, s := range scenarios {
			out[s.name] = measureGolden(t, s)
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	g := loadGoldens(t)
	for _, s := range scenarios {
		if _, ok := g[s.name]; !ok {
			t.Errorf("scenario %q has no golden", s.name)
		}
	}
	if len(g) != len(scenarios) {
		t.Errorf("%s holds %d goldens for %d scenarios", goldenPath, len(g), len(scenarios))
	}
}

func findGoldenScenario(name string) (goldenScenario, bool) {
	for _, s := range engineGoldenScenarios() {
		if s.name == name {
			return s, true
		}
	}
	return goldenScenario{}, false
}

// hybridChain builds a left-deep chain annotated with a deliberately mixed
// HY-policy assignment: join annotations cycle through consumer/inner/outer
// and selects alternate consumer/producer, so the plan exercises
// client-side joins, server-side joins, and both network-pair directions in
// one query.
func hybridChain(n int) *plan.Node {
	root := leftDeepChain(n)
	joins, sels := 0, 0
	joinAnns := []plan.Annotation{plan.AnnConsumer, plan.AnnInner, plan.AnnOuter}
	root.Walk(func(nd *plan.Node) {
		switch nd.Kind {
		case plan.KindDisplay:
			nd.Ann = plan.AnnClient
		case plan.KindScan:
			nd.Ann = plan.AnnPrimary
		case plan.KindJoin:
			nd.Ann = joinAnns[joins%len(joinAnns)]
			joins++
		case plan.KindSelect, plan.KindAgg:
			if sels%2 == 0 {
				nd.Ann = plan.AnnConsumer
			} else {
				nd.Ann = plan.AnnProducer
			}
			sels++
		}
	})
	return root
}

// runGolden is the common Run-based scenario body.
func runGolden(t *testing.T, cfg Config, root *plan.Node, trace func(sim.Time, string)) Result {
	t.Helper()
	cfg.Trace = trace
	res, err := Run(cfg, root)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// partialPageCatalog lays out n relations of 60 tuples each round robin over
// the servers. At 4096-byte pages and 100-byte tuples a page holds 40
// tuples, so every relation ends on a partial page.
func partialPageCatalog(t *testing.T, n, servers int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(4096, servers)
	for i, home := range workload.PlaceRoundRobin(n, servers) {
		if err := cat.AddRelation(catalog.Relation{
			Name: workload.RelName(i), Tuples: 60,
			TupleBytes: workload.DefaultTupleBytes, Home: home,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// fig8Cell is the stored Figure 8 cell: `csq run -quick -reps 2 -seed 42
// fig8`, HY at 2 servers, repetition 1 — the optimized plan, the random
// relation placement and the simulation seed.
type fig8Cell struct {
	Servers   int              `json:"servers"`
	Placement []catalog.SiteID `json:"placement"`
	SimSeed   int64            `json:"sim_seed"`
	Plan      json.RawMessage  `json:"plan"`
}

func loadFig8Cell(t *testing.T) (Config, *plan.Node) {
	t.Helper()
	data, err := os.ReadFile("testdata/fig8_hy_2servers_rep1.json")
	if err != nil {
		t.Fatal(err)
	}
	var cell fig8Cell
	if err := json.Unmarshal(data, &cell); err != nil {
		t.Fatal(err)
	}
	root, err := plan.Unmarshal(cell.Plan)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := workload.BuildCatalog(4096, cell.Servers, cell.Placement)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Params:  DefaultParams(), // Figure 8 runs the minimum join allocation
		Catalog: cat,
		Query:   workload.ChainQuery(10, workload.Moderate),
		Next:    workload.Next(workload.Moderate),
		Seed:    cell.SimSeed,
	}, root
}

// sessionOutcome is what a session scenario reports.
type sessionOutcome struct {
	Queries  []QueryResult
	Updates  []UpdateResult
	End      float64
	NetPages int64
	NetMsgs  int64
	Disk     map[catalog.SiteID]disk.Stats
	Summary  any
}

// engineGoldenScenarios lists every golden configuration: policy ×
// allocation × faults × partial last page, plus session, coherent,
// replicated, multi-query, select/aggregate runs and the Figure 8 cell.
func engineGoldenScenarios() []goldenScenario {
	var out []goldenScenario
	plans := []struct {
		name string
		mk   func() *plan.Node
	}{
		{"qs", func() *plan.Node { return annotate(leftDeepChain(5), plan.QueryShipping) }},
		{"ds", func() *plan.Node { return annotate(leftDeepChain(5), plan.DataShipping) }},
		{"hy", func() *plan.Node { return hybridChain(5) }},
	}
	for _, pc := range plans {
		for _, maxAlloc := range []bool{true, false} {
			pc, maxAlloc := pc, maxAlloc
			out = append(out, goldenScenario{
				name: fmt.Sprintf("grid/%s/maxalloc=%v", pc.name, maxAlloc),
				run: func(t *testing.T, tr func(sim.Time, string)) any {
					return runGolden(t, chainConfig(t, 5, 2, workload.Moderate, maxAlloc), pc.mk(), tr)
				},
			})
		}
	}
	faultCases := []struct {
		name string
		fc   faults.Config
	}{
		{"scripted-crash", faults.Config{
			Seed:   7,
			Script: []faults.Event{{At: 1.0, Kind: faults.SiteCrash, Site: 0, Duration: 2.0}},
		}},
		{"chaos", faults.Config{Seed: 1, SiteMTBF: 20, SiteMTTR: 1, MaxRetries: 200}},
	}
	for _, fcase := range faultCases {
		fcase := fcase
		out = append(out, goldenScenario{
			name: "faults/" + fcase.name,
			run: func(t *testing.T, tr func(sim.Time, string)) any {
				cfg := chainConfig(t, 2, 1, workload.Moderate, true)
				fc := fcase.fc
				cfg.Faults = &fc
				return runGolden(t, cfg, annotate(leftDeepChain(2), plan.QueryShipping), tr)
			},
		})
	}
	out = append(out, goldenScenario{
		name: "trace/qs-4way-minalloc",
		run: func(t *testing.T, tr func(sim.Time, string)) any {
			return runGolden(t, chainConfig(t, 4, 2, workload.Moderate, false),
				annotate(leftDeepChain(4), plan.QueryShipping), tr)
		},
	})
	for _, pol := range []plan.Policy{plan.DataShipping, plan.QueryShipping} {
		for _, maxAlloc := range []bool{true, false} {
			pol, maxAlloc := pol, maxAlloc
			out = append(out, goldenScenario{
				name: fmt.Sprintf("partial-page/%v/maxalloc=%v", pol, maxAlloc),
				run: func(t *testing.T, tr func(sim.Time, string)) any {
					params := DefaultParams()
					params.MaxAlloc = maxAlloc
					cfg := Config{
						Params:  params,
						Catalog: partialPageCatalog(t, 3, 2),
						Query:   workload.ChainQuery(3, workload.Moderate),
						Next:    workload.Next(workload.Moderate),
						Seed:    1,
					}
					return runGolden(t, cfg, annotate(leftDeepChain(3), pol), tr)
				},
			})
		}
	}
	out = append(out, goldenScenario{
		name: "loaded/qs-5way-minalloc",
		run: func(t *testing.T, tr func(sim.Time, string)) any {
			cfg := chainConfig(t, 5, 2, workload.Moderate, false)
			cfg.ServerLoad = map[catalog.SiteID]float64{0: 40}
			return runGolden(t, cfg, annotate(leftDeepChain(5), plan.QueryShipping), tr)
		},
	})
	out = append(out, goldenScenario{
		name: "loaded/two-servers",
		run: func(t *testing.T, tr func(sim.Time, string)) any {
			cfg := chainConfig(t, 4, 2, workload.Moderate, false)
			cfg.ServerLoad = map[catalog.SiteID]float64{0: 40, 1: 60}
			return runGolden(t, cfg, annotate(leftDeepChain(4), plan.QueryShipping), tr)
		},
	})
	for _, pol := range []plan.Policy{plan.QueryShipping, plan.DataShipping} {
		pol := pol
		out = append(out, goldenScenario{
			name: fmt.Sprintf("select-agg/%v", pol),
			run: func(t *testing.T, tr func(sim.Time, string)) any {
				cfg := chainConfig(t, 3, 2, workload.Moderate, false)
				cfg.Query.Selects = map[string]float64{"R0": 0.3}
				cfg.Query.GroupBy = 7
				cfg.Pass = func(rel string, id int64) bool { return rel != "R0" || id%10 < 3 }
				sel := plan.NewSelect(plan.NewScan("R0"), "R0")
				join := plan.NewJoin(plan.NewJoin(sel, plan.NewScan("R1")), plan.NewScan("R2"))
				root := plan.NewDisplay(plan.NewAgg(join))
				return runGolden(t, cfg, annotate(root, pol), tr)
			},
		})
	}
	out = append(out, goldenScenario{
		name: "session/qs-3way",
		run: func(t *testing.T, tr func(sim.Time, string)) any {
			cfg := chainConfig(t, 3, 2, workload.Moderate, true)
			cfg.Trace = tr
			ses, err := NewSession(cfg, SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			qr, qerr := runOnSession(t, ses, annotate(leftDeepChain(3), plan.QueryShipping), QueryOpts{})
			if qerr != nil {
				t.Fatal(qerr)
			}
			return sessionOutcomeOf(ses, []QueryResult{qr}, nil)
		},
	})
	out = append(out, goldenScenario{
		name: "coherent/ds-2clients-update-crashes",
		run: func(t *testing.T, tr func(sim.Time, string)) any {
			cfg := cohConfig(t, 2, 2, 2, 5.0)
			cfg.Faults = &faults.Config{
				Seed: 13,
				Script: []faults.Event{
					{At: 8, Kind: faults.ClientCrash, Site: 1, Duration: 4.0},
					{At: 20, Kind: faults.SiteCrash, Site: 0, Duration: 3.0},
				},
			}
			cfg.Trace = tr
			ses, err := NewSession(cfg, SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ds := annotate(leftDeepChain(2), plan.DataShipping)
			qs := annotate(leftDeepChain(2), plan.QueryShipping)
			dsb, err := ses.Bind(ds)
			if err != nil {
				t.Fatal(err)
			}
			qsb, err := ses.Bind(qs)
			if err != nil {
				t.Fatal(err)
			}
			var (
				qrs []QueryResult
				ups []UpdateResult
			)
			ses.Simulator().Spawn("driver", func(p *sim.Proc) {
				q, _ := ses.Execute(p, 0, dsb, QueryOpts{Client: 0})
				qrs = append(qrs, q)
				u, _ := ses.ExecuteUpdate(p, 1, workload.RelName(0), 0, 2)
				ups = append(ups, u)
				q, _ = ses.Execute(p, 1, dsb, QueryOpts{Client: 0})
				qrs = append(qrs, q)
				q, _ = ses.Execute(p, 2, qsb, QueryOpts{Client: 1})
				qrs = append(qrs, q)
				q, _ = ses.Execute(p, 3, dsb, QueryOpts{Client: 1})
				qrs = append(qrs, q)
			})
			ses.Run()
			return sessionOutcomeOf(ses, qrs, ups)
		},
	})
	out = append(out, goldenScenario{
		name: "faults/every-class",
		run: func(t *testing.T, tr func(sim.Time, string)) any {
			cfg := cohConfig(t, 2, 2, 2, 5.0)
			cfg.Faults = &faults.Config{
				Seed: 3, MaxRetries: 200,
				SiteMTBF: 30, SiteMTTR: 1,
				DiskMTBF: 20, DiskMTTR: 0.5,
				NetMTBF: 25, NetMTTR: 0.3,
				DegradeMTBF: 15, DegradeMTTR: 2,
				ClientMTBF: 40, ClientMTTR: 2,
				Script: []faults.Event{
					{At: 0.5, Kind: faults.NetOutage, Duration: 0.2},
					{At: 1.0, Kind: faults.DiskStall, Site: 1, Duration: 0.4},
					{At: 2.0, Kind: faults.NetDegrade, Duration: 1.5, Factor: 3},
					{At: 4.0, Kind: faults.SiteCrash, Site: 0, Duration: 1.0},
					{At: 6.0, Kind: faults.ClientCrash, Site: 1, Duration: 2.0},
				},
			}
			cfg.Trace = tr
			ses, err := NewSession(cfg, SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			dsb, err := ses.Bind(annotate(leftDeepChain(2), plan.DataShipping))
			if err != nil {
				t.Fatal(err)
			}
			qsb, err := ses.Bind(annotate(leftDeepChain(2), plan.QueryShipping))
			if err != nil {
				t.Fatal(err)
			}
			// Client 0 runs the first three queries and client 1 the rest,
			// so the scripted client crash finds client 1 idle: a crash
			// under a running query fails it for good.
			var qrs []QueryResult
			ses.Simulator().Spawn("driver", func(p *sim.Proc) {
				for i, b := range []*BoundPlan{dsb, qsb, dsb, qsb, dsb, qsb} {
					q, _ := ses.Execute(p, i, b, QueryOpts{Client: i / 3})
					qrs = append(qrs, q)
				}
			})
			ses.Run()
			return struct {
				sessionOutcome
				Faults faults.Stats
			}{sessionOutcomeOf(ses, qrs, nil), ses.FaultStats()}
		},
	})
	out = append(out, goldenScenario{
		name: "replica/rf2-permanent-primary-crash",
		run: func(t *testing.T, tr func(sim.Time, string)) any {
			cfg := replicatedChainConfig(t, 3, 3, 2, workload.Moderate)
			cfg.Faults = &faults.Config{
				Seed:   7,
				Script: []faults.Event{{At: 0.5, Kind: faults.SiteCrash, Site: 0}},
			}
			return runGolden(t, cfg, annotate(leftDeepChain(3), plan.QueryShipping), tr)
		},
	})
	out = append(out, goldenScenario{
		name: "multi/staggered-mixed-policies",
		run: func(t *testing.T, tr func(sim.Time, string)) any {
			cfg := chainConfig(t, 3, 2, workload.Moderate, false)
			cfg.Trace = tr
			res, err := RunMulti(cfg, []QueryRun{
				{Plan: annotate(leftDeepChain(3), plan.QueryShipping)},
				{Plan: annotate(leftDeepChain(3), plan.DataShipping), Start: 0.05},
				{Plan: hybridChain(3), Start: 0.2},
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
	})
	out = append(out, goldenScenario{
		name: "faults/script-ties",
		run: func(t *testing.T, tr func(sim.Time, string)) any {
			cfg := chainConfig(t, 3, 2, workload.Moderate, true)
			fc, _ := scriptTieFaults(t)
			cfg.Faults = &fc
			return runGolden(t, cfg, annotate(leftDeepChain(3), plan.QueryShipping), tr)
		},
	})
	out = append(out, goldenScenario{
		name: "fig8/hy-2servers-rep1",
		run: func(t *testing.T, tr func(sim.Time, string)) any {
			cfg, root := loadFig8Cell(t)
			return runGolden(t, cfg, root, tr)
		},
	})
	return out
}

func sessionOutcomeOf(ses *Session, qrs []QueryResult, ups []UpdateResult) sessionOutcome {
	st := ses.NetStats()
	out := sessionOutcome{
		Queries: qrs, Updates: ups, End: ses.Now(),
		NetPages: st.DataPages, NetMsgs: st.Messages, Disk: ses.DiskStats(),
	}
	if ses.e.cfg.Coherence != nil {
		out.Summary = ses.Coherence().Summary()
	}
	return out
}

// scriptTieFaults is the fault configuration of the faults/script-ties
// golden: two scripted faults at one instant (a degradation and a disk
// stall at 0.2 s, whose recoveries also tie), and a scripted outage whose
// recovery lands on exactly the virtual time of server 0's first stochastic
// crash, which it returns. The outage's start is searched so that the
// script's hold and the recovery's hold, each rounded as the kernel rounds
// them, sum to that crash time.
func scriptTieFaults(t testing.TB) (faults.Config, float64) {
	t.Helper()
	const seed, mtbf, first = 4, 3.0, 0.2
	crash := rand.New(rand.NewSource(seedmix.Derive(seed, 1, 0))).ExpFloat64() * mtbf
	for _, d := range []float64{0.25, 0.125, 0.375, 0.0625, 0.3} {
		at := crash - d
		if at <= first {
			continue
		}
		if first+(at-first)+d != crash {
			continue
		}
		return faults.Config{
			Seed: seed, MaxRetries: 200,
			SiteMTBF: mtbf, SiteMTTR: 0.5,
			Script: []faults.Event{
				{At: first, Kind: faults.NetDegrade, Duration: 0.3, Factor: 2},
				{At: first, Kind: faults.DiskStall, Site: 1, Duration: 0.3},
				{At: at, Kind: faults.NetOutage, Duration: d},
			},
		}, crash
	}
	t.Fatalf("no scripted outage recovers at exactly the first crash time %g", crash)
	return faults.Config{}, 0
}

// TestScriptTiesGoldenTies checks that the faults/script-ties golden pins
// what it is meant to: a recovery and a stochastic crash dispatched at one
// instant, and two scripted faults applied at one instant.
func TestScriptTiesGoldenTies(t *testing.T) {
	fc, crash := scriptTieFaults(t)
	cfg := chainConfig(t, 3, 2, workload.Moderate, true)
	cfg.Faults = &fc
	first, firstEnd := fc.Script[0].At, fc.Script[0].At+fc.Script[0].Duration
	at := make(map[sim.Time][]string)
	runGolden(t, cfg, annotate(leftDeepChain(3), plan.QueryShipping), func(now sim.Time, name string) {
		if now == crash || now == first || now == firstEnd {
			at[now] = append(at[now], name)
		}
	})
	if !slices.Contains(at[crash], "fault:1/0") || !slices.Contains(at[crash], "fault:recover") {
		t.Errorf("dispatches at the first crash time %g: %v, want the crash stream and a recovery", crash, at[crash])
	}
	if !slices.Contains(at[first], "fault:script") {
		t.Errorf("dispatches at %g: %v, want the script applying its two faults", first, at[first])
	}
	if n := len(slices.DeleteFunc(at[firstEnd], func(name string) bool { return name != "fault:recover" })); n != 2 {
		t.Errorf("%d recoveries dispatched at %g, want the two scripted faults' recoveries", n, firstEnd)
	}
}
