// Command csq (client-server query) regenerates the tables and figures of
// "Performance Tradeoffs for Client-Server Query Processing" (SIGMOD 1996).
//
// Usage:
//
//	csq run all                 # every figure (slow: full sweeps)
//	csq run fig2 fig3           # specific figures
//	csq run -quick -reps 3 fig8 # thinner sweep, fewer repetitions
//	csq run -cpuprofile fig8.prof -quick fig8  # plus a CPU profile
//	csq list                    # what can be reproduced
//
// Output is a text table per figure: one row per x value, one "mean ±90% CI"
// column per series — the same rows the paper plots.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"hybridship/internal/experiments"
)

// experiment is one entry of csq's registry: a name on the command line, a
// one-line description for `csq list`, and a runner that prints the
// experiment's tables to stdout (runCmd appends the wall-clock line).
type experiment struct {
	name     string
	desc     string
	ablation bool // listed after the figures and extensions, under "ablation:"
	run      func(cfg experiments.Config, verbose bool) error
}

// registry holds every experiment csq can run, in `csq list` order: figures,
// extensions and grids sorted by name, then the ablations sorted by name.
var registry = []experiment{
	{name: "aggregate", desc: "extension: grouped aggregation vs policy traffic", run: figure(experiments.Config.ExtAggregate)},
	{name: "chaos", desc: "fault injection: response time and goodput vs site MTBF", run: runChaos},
	{name: "coherence", desc: "cache coherence: clients x write fraction x lease x MTBF, oracle-checked", run: runCoherence},
	{name: "crossover", desc: "extension: DS/QS crossover vs join result size", run: figure(experiments.Config.ExtCrossover)},
	{name: "failover", desc: "replication: availability and goodput vs site MTBF, RF 1-3", run: runFailover},
	{name: "fig10", desc: "relative response time, static vs 2-step, deep vs bushy", run: figure(experiments.Config.Fig10)},
	{name: "fig11", desc: "same as fig10 for the HiSel query", run: figure(experiments.Config.Fig11)},
	{name: "fig2", desc: "pages sent, 2-way join, vary caching", run: figure(experiments.Config.Fig2)},
	{name: "fig3", desc: "response time, 2-way join, vary caching, min alloc", run: figure(experiments.Config.Fig3)},
	{name: "fig4", desc: "response time, DS, vary server load and caching", run: figure(experiments.Config.Fig4)},
	{name: "fig5", desc: "response time, 2-way join, vary caching, max alloc", run: figure(experiments.Config.Fig5)},
	{name: "fig6", desc: "pages sent, 10-way join, vary servers", run: figure(experiments.Config.Fig6)},
	{name: "fig7", desc: "pages sent, 10-way join, vary servers, 5 relations cached", run: figure(experiments.Config.Fig7)},
	{name: "fig8", desc: "response time, 10-way join, vary servers, min alloc", run: figure(experiments.Config.Fig8)},
	{name: "fig9", desc: "communication of static vs 2-step plans after data migration", run: runFig9},
	{name: "multiquery", desc: "extension: real concurrency vs the load approximation", run: figure(experiments.Config.ExtMultiQuery)},
	{name: "overload", desc: "serving layer: goodput and tail latency vs offered load, on/off", run: runOverload},
	{name: "shardscale", desc: "parallel kernel: one fleet run on 1/2/4/8 shards, equality-checked", run: runShardScale},
	{name: "star", desc: "extension: figure 8 for star joins", run: figure(experiments.Config.ExtStar)},
	ablation("commutativity", "optimizer join-commutativity move on/off", experiments.Config.AblationCommutativity),
	ablation("elevator", "SCAN vs FIFO disk scheduling under load", experiments.Config.AblationElevator),
	ablation("lookahead", "pipeline lookahead depth (1/4/16 pages)", experiments.Config.AblationLookahead),
	ablation("writecache", "disk write-back cache vs write-through", experiments.Config.AblationWriteCache),
}

// allFigures is what `csq run all` expands to. The chaos, failover,
// coherence, overload and shardscale grids are not part of it: the committed
// figure record (results_full.txt's default section) stays exactly the
// paper's fault-free reproduction. Run them explicitly by name.
var allFigures = []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}

// lookup finds an experiment by case-insensitive name.
func lookup(name string) (experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.name, name) {
			return e, true
		}
	}
	return experiment{}, false
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		list()
	case "run":
		runCmd(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  csq list
  csq run [-reps N] [-seed S] [-quick] [-v] [-cpuprofile FILE] <fig2|fig3|...|fig9|fig10|fig11|chaos|failover|coherence|overload|shardscale|all>...`)
}

func list() {
	for _, e := range registry {
		if e.ablation {
			fmt.Printf("  %-14s ablation: %s\n", e.name, e.desc)
		} else {
			fmt.Printf("  %-14s %s\n", e.name, e.desc)
		}
	}
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	reps := fs.Int("reps", 5, "repetitions per data point")
	seed := fs.Int64("seed", 42, "random seed")
	quick := fs.Bool("quick", false, "thin the parameter sweeps")
	verbose := fs.Bool("v", false, "verbose: per-cell counters (overload/failover) and per-stream attribution (coherence)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to `file` (pprof format; read it with go tool pprof)")
	fs.Parse(args)

	targets := fs.Args()
	if len(targets) == 0 {
		usage()
		os.Exit(2)
	}
	if len(targets) == 1 && targets[0] == "all" {
		targets = allFigures
	}
	exps := make([]experiment, len(targets))
	for i, name := range targets {
		e, ok := lookup(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try: csq list)\n", name)
			os.Exit(2)
		}
		exps[i] = e
	}
	cfg := experiments.Config{Reps: *reps, Seed: *seed, Quick: *quick}

	stop, err := startCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "csq: %v\n", err)
		os.Exit(1)
	}
	err = runExperiments(exps, cfg, *verbose)
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runExperiments runs each experiment in turn, printing its tables and then
// its wall-clock time.
func runExperiments(exps []experiment, cfg experiments.Config, verbose bool) error {
	for _, e := range exps {
		start := time.Now()
		if err := e.run(cfg, verbose); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("  [%s]\n\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// startCPUProfile starts profiling into path, if one is given, and returns
// the function that stops the profile and closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// figure adapts a single-figure experiment to the registry.
func figure(run func(experiments.Config) (*experiments.Figure, error)) func(experiments.Config, bool) error {
	return func(cfg experiments.Config, _ bool) error {
		fig, err := run(cfg)
		if err != nil {
			return err
		}
		fmt.Println(fig)
		return nil
	}
}

// ablation builds the registry entry of an ablation: one response time per
// setting.
func ablation(name, desc string, run func(experiments.Config) ([]experiments.AblationResult, error)) experiment {
	return experiment{name: name, desc: desc, ablation: true, run: func(cfg experiments.Config, _ bool) error {
		rows, err := run(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("Ablation %s: %s\n", name, desc)
		for _, r := range rows {
			fmt.Printf("  %-24s %8.2fs\n", r.Setting, r.ResponseTime)
		}
		return nil
	}}
}

// runFig9 prints Figure 9's three page counts against the ideal plan.
func runFig9(cfg experiments.Config, _ bool) error {
	res, err := cfg.Fig9()
	if err != nil {
		return err
	}
	fmt.Printf("Figure 9: communication after data migration (pages sent)\n")
	fmt.Printf("  static plan   %5d  (%.2fx of ideal)\n", res.StaticPages, float64(res.StaticPages)/float64(res.IdealPages))
	fmt.Printf("  2-step plan   %5d  (%.2fx of ideal)\n", res.TwoStepPages, float64(res.TwoStepPages)/float64(res.IdealPages))
	fmt.Printf("  ideal plan    %5d\n", res.IdealPages)
	return nil
}

// runChaos prints the fault-injection grid's figures.
func runChaos(cfg experiments.Config, _ bool) error {
	figs, err := cfg.Chaos()
	if err != nil {
		return err
	}
	for _, fig := range figs {
		fmt.Println(fig)
	}
	return nil
}

// runFailover prints the replication grid: the availability and goodput
// figures, and — with -v — the per-cell failure-handling counters: retries,
// replica failovers (the retry loop re-bound to a surviving copy), and
// backoff skips (a wait avoided because another copy was already up).
func runFailover(cfg experiments.Config, verbose bool) error {
	rep, err := cfg.Failover()
	if err != nil {
		return err
	}
	for _, fig := range rep.Figures {
		fmt.Println(fig)
	}
	if verbose {
		fmt.Println("Failover cells (summed over reps): retries, replica failovers, backoff skips")
		for _, cl := range rep.Cells {
			fmt.Printf("  mtbf=%-4g %-3s rf=%d retry=%-4d failover=%-4d skip=%d\n",
				cl.MTBF, cl.Policy, cl.RF, cl.Retries, cl.ReplicaFailovers, cl.BackoffSkips)
		}
	}
	return nil
}

// runCoherence prints the cache-coherence grid: per-cell served/write/
// invalidation counters with the staleness oracle's verdict (stale must read
// 0 everywhere; the driver has already asserted it), and — with -v — the
// per-client-stream attribution separating callback traffic from queries.
func runCoherence(cfg experiments.Config, verbose bool) error {
	rep, err := cfg.Coherence()
	if err != nil {
		return err
	}
	for _, fig := range rep.Figures {
		fmt.Println(fig)
	}
	fmt.Println("Coherence cells (summed over reps): completed/failed, updates committed/bounded,")
	fmt.Println("invalidations, cache hit/miss pages, lease renewals, stale reads (oracle)")
	for _, cl := range rep.Cells {
		fmt.Printf("  c=%d wf=%-4g lease=%-3g mtbf=%-4g comp=%-4d fail=%-3d upd=%-3d/%-3d bexp=%-2d inv=%-3d hit=%-5d miss=%-4d renew=%-3d stale=%d\n",
			cl.Clients, cl.WriteFrac, cl.Lease, cl.MTBF,
			cl.Completed, cl.Failed, cl.UpdatesCommitted, cl.Updates, cl.UpdatesBounded,
			cl.Invalidations, cl.CacheHitPages, cl.CacheMissPages, cl.LeaseRenewals, cl.StaleReads)
		if verbose {
			for s, st := range cl.Streams {
				fmt.Printf("      stream %d: queries=%-3d updates=%-3d shed=%-2d cbmsgs=%-3d cbbytes=%d\n",
					s, st.Queries, st.Updates, st.ShedDown, st.CallbackMsgs, st.CallbackBytes)
			}
		}
	}
	return nil
}

// runOverload prints the serving-layer grid: the goodput and tail-latency
// figures, the aggregated shed/expire/degrade counters per cell, and — with
// -v — the degradation-level transitions of each cell's first repetition.
func runOverload(cfg experiments.Config, verbose bool) error {
	rep, err := cfg.Overload()
	if err != nil {
		return err
	}
	for _, fig := range rep.Figures {
		fmt.Println(fig)
	}
	fmt.Println("Overload cells (summed over reps): offered/rejected/completed/expired/failed,")
	fmt.Println("degraded admissions, granted retries, breaker opens")
	levels := []string{"fresh", "cached", "static"}
	for _, cl := range rep.Cells {
		fmt.Printf("  mtbf=%-4g %-3s %-3s load=%-4g off=%-4d rej=%-4d comp=%-4d exp=%-4d fail=%-4d degr=%-4d retry=%-3d open=%d\n",
			cl.MTBF, cl.Policy, cl.Mode, cl.Load,
			cl.Offered, cl.Rejected, cl.Completed, cl.Expired, cl.Failed,
			cl.Degraded, cl.RetriesGranted, cl.BreakerOpens)
		if verbose {
			for _, tr := range cl.Transitions {
				fmt.Printf("      t=%8.3fs  %s -> %s  (queue depth %d)\n",
					tr.At, levels[tr.From], levels[tr.To], tr.Depth)
			}
		}
	}
	return nil
}

// runShardScale prints the parallel-kernel grid: the fleet summary, the
// per-shard-count scaling cells (every cell's observable state has already
// been asserted DeepEqual to the shards=1 reference before this prints), and
// — with -v — the fleet monitor's checkpoint log.
func runShardScale(cfg experiments.Config, verbose bool) error {
	rep, err := cfg.ShardScale()
	if err != nil {
		return err
	}
	fmt.Printf("Shardscale: one fleet run (%d serving groups x %d queries) on 1/2/4/8 shards\n",
		rep.Groups, rep.QueriesPerGroup)
	fmt.Printf("  fleet completed %d queries by t=%.3fs (virtual); identical at every shard count\n",
		rep.Completed, rep.Elapsed)
	fmt.Println("  shards  wall(s)   events/s   windows  speedup(wall)  speedup(critical-path)")
	for _, cl := range rep.Cells {
		fmt.Printf("  %6d  %7.3f  %9.0f  %7d  %13.2f  %22.2f\n",
			cl.Shards, cl.WallSec, cl.EventsPerSec, cl.Windows, cl.WallSpeedup, cl.CriticalSpeedup)
	}
	if verbose {
		fmt.Println("  checkpoint log (virtual time at each fleet-wide completion step):")
		for _, cp := range rep.Checkpoints {
			fmt.Printf("      t=%8.3fs  completed=%d\n", cp.At, cp.Completed)
		}
	}
	return nil
}
