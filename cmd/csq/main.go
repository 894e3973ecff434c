// Command csq (client-server query) regenerates the tables and figures of
// "Performance Tradeoffs for Client-Server Query Processing" (SIGMOD 1996).
//
// Usage:
//
//	csq run all                 # every figure (slow: full sweeps)
//	csq run fig2 fig3           # specific figures
//	csq run fig1                # Figure 1's annotated example plans
//	csq run -quick -reps 3 fig8 # thinner sweep, fewer repetitions
//	csq run -cpuprofile fig8.prof -quick fig8  # plus a CPU profile
//	csq run -memprofile fig8.mem -quick fig8   # plus an allocation profile
//	csq list                    # what can be reproduced
//
// Output is a text table per figure: one row per x value, one "mean ±90% CI"
// column per series — the same rows the paper plots.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"hybridship/internal/experiments"
)

// experiment is one entry of csq's registry: a name on the command line, a
// one-line description for `csq list`, and a driver whose report runCmd
// prints (followed by the wall-clock line).
type experiment struct {
	name     string
	desc     string
	ablation bool // listed after the figures and extensions, under "ablation:"
	run      func(experiments.Config) (*experiments.Report, error)
}

// registry holds every experiment csq can run, in `csq list` order: figures,
// extensions and grids sorted by name, then the ablations sorted by name.
var registry = []experiment{
	{name: "aggregate", desc: "extension: grouped aggregation vs policy traffic", run: experiments.Config.ExtAggregate},
	{name: "chaos", desc: "fault injection: response time and goodput vs site MTBF", run: experiments.Config.Chaos},
	{name: "coherence", desc: "cache coherence: clients x write fraction x lease x MTBF, oracle-checked", run: experiments.Config.Coherence},
	{name: "crossover", desc: "extension: DS/QS crossover vs join result size", run: experiments.Config.ExtCrossover},
	{name: "failover", desc: "replication: availability and goodput vs site MTBF, RF 1-3", run: experiments.Config.Failover},
	{name: "fig1", desc: "the example annotated DS, QS and HY plans", run: experiments.Config.Fig1},
	{name: "fig10", desc: "relative response time, static vs 2-step, deep vs bushy", run: experiments.Config.Fig10},
	{name: "fig11", desc: "same as fig10 for the HiSel query", run: experiments.Config.Fig11},
	{name: "fig2", desc: "pages sent, 2-way join, vary caching", run: experiments.Config.Fig2},
	{name: "fig3", desc: "response time, 2-way join, vary caching, min alloc", run: experiments.Config.Fig3},
	{name: "fig4", desc: "response time, DS, vary server load and caching", run: experiments.Config.Fig4},
	{name: "fig5", desc: "response time, 2-way join, vary caching, max alloc", run: experiments.Config.Fig5},
	{name: "fig6", desc: "pages sent, 10-way join, vary servers", run: experiments.Config.Fig6},
	{name: "fig7", desc: "pages sent, 10-way join, vary servers, 5 relations cached", run: experiments.Config.Fig7},
	{name: "fig8", desc: "response time, 10-way join, vary servers, min alloc", run: experiments.Config.Fig8},
	{name: "fig9", desc: "communication of static vs 2-step plans after data migration", run: experiments.Config.Fig9},
	{name: "multiquery", desc: "extension: real concurrency vs the load approximation", run: experiments.Config.ExtMultiQuery},
	{name: "overload", desc: "serving layer: goodput and tail latency vs offered load, on/off", run: experiments.Config.Overload},
	{name: "shardscale", desc: "parallel kernel: one fleet run on 1/2/4/8 shards, equality-checked", run: experiments.Config.ShardScale},
	{name: "star", desc: "extension: figure 8 for star joins", run: experiments.Config.ExtStar},
	{name: "commutativity", desc: "optimizer join-commutativity move on/off", ablation: true, run: experiments.Config.AblationCommutativity},
	{name: "elevator", desc: "SCAN vs FIFO disk scheduling under load", ablation: true, run: experiments.Config.AblationElevator},
	{name: "lookahead", desc: "pipeline lookahead depth (1/4/16 pages)", ablation: true, run: experiments.Config.AblationLookahead},
	{name: "writecache", desc: "disk write-back cache vs write-through", ablation: true, run: experiments.Config.AblationWriteCache},
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

// resolve maps command-line targets to experiments, in order. "all", in any
// case and at any position, expands to allFigures.
func resolve(targets []string) ([]experiment, error) {
	var exps []experiment
	for _, target := range targets {
		names := []string{target}
		if strings.EqualFold(target, "all") {
			names = allFigures
		}
		for _, name := range names {
			e, ok := lookup(name)
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q (try: csq list)", name)
			}
			exps = append(exps, e)
		}
	}
	return exps, nil
}

func main() {
	os.Exit(csq(os.Args[1:], os.Stdout, os.Stderr))
}

// csq executes one command line and returns the process exit status.
func csq(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "list":
			list(stdout)
			return 0
		case "run":
			return runCmd(args[1:], stdout, stderr)
		}
	}
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	names := make([]string, 0, len(registry)+1)
	for _, e := range registry {
		names = append(names, e.name)
	}
	fmt.Fprintf(w, `usage:
  csq list
  csq run [-reps N] [-seed S] [-quick] [-v] [-cpuprofile FILE] [-memprofile FILE] <%s>...
`, strings.Join(append(names, "all"), "|"))
}

func list(w io.Writer) {
	for _, e := range registry {
		if e.ablation {
			fmt.Fprintf(w, "  %-14s ablation: %s\n", e.name, e.desc)
		} else {
			fmt.Fprintf(w, "  %-14s %s\n", e.name, e.desc)
		}
	}
}

func runCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	reps := fs.Int("reps", 5, "repetitions per data point (at least 1)")
	seed := fs.Int64("seed", 42, "random seed")
	quick := fs.Bool("quick", false, "thin the parameter sweeps")
	verbose := fs.Bool("v", false, "verbose: failover's per-cell counters, overload's level transitions, coherence's per-stream attribution and shardscale's checkpoint log")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to `file` (pprof format; read it with go tool pprof)")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the whole run to `file` when it ends (pprof format; go tool pprof -sample_index=alloc_space)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *reps < 1 {
		fmt.Fprintf(stderr, "csq: -reps must be at least 1, got %d\n", *reps)
		usage(stderr)
		return 2
	}
	if fs.NArg() == 0 {
		usage(stderr)
		return 2
	}
	exps, err := resolve(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg := experiments.Config{Reps: *reps, Seed: *seed, Quick: *quick}

	stop, err := startCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintf(stderr, "csq: %v\n", err)
		return 1
	}
	err = runExperiments(stdout, exps, cfg, *verbose)
	if perr := stop(); err == nil {
		err = perr
	}
	if err == nil {
		err = writeMemProfile(*memprofile)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// runExperiments runs each experiment in turn, printing its report and then
// its wall-clock time.
func runExperiments(w io.Writer, exps []experiment, cfg experiments.Config, verbose bool) error {
	for _, e := range exps {
		start := time.Now()
		rep, err := e.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if e.ablation {
			fmt.Fprintf(w, "Ablation %s: %s\n", e.name, e.desc)
		}
		rep.Write(w, verbose)
		fmt.Fprintf(w, "  [%s]\n\n", time.Since(start).Round(time.Millisecond))
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

// writeMemProfile writes the allocation profile of everything the process
// has allocated so far to path, if one is given.
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	return f.Close()
}
