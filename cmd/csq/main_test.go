package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hybridship/internal/experiments"
)

// timing matches the wall-clock line printed after each experiment.
var timing = regexp.MustCompile(`(?m)^  \[[^\]]*\]\n`)

// TestGridsGolden pins every table of the four serving and fault grids,
// per-row detail included: `csq run -quick -reps 2 -v chaos failover
// coherence overload` must print testdata/grids_quick_v.txt byte for byte,
// wall-clock lines aside. Regenerate it only for a deliberate output
// change, with that command piped through `sed '/^  \[/d'`.
func TestGridsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/grids_quick_v.txt")
	if err != nil {
		t.Fatal(err)
	}
	exps, err := resolve([]string{"chaos", "failover", "coherence", "overload"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runExperiments(&out, exps, experiments.Config{Reps: 2, Seed: 42, Quick: true}, true); err != nil {
		t.Fatal(err)
	}
	if got := timing.ReplaceAllString(out.String(), ""); got != string(want) {
		t.Errorf("grid output diverges from testdata/grids_quick_v.txt:\n%s", got)
	}
}

// TestRunRejectsNonPositiveReps: a repetition count below one is a usage
// error, not a silent fallback to the default.
func TestRunRejectsNonPositiveReps(t *testing.T) {
	for _, reps := range []string{"-3", "0"} {
		var stdout, stderr bytes.Buffer
		if code := csq([]string{"run", "-reps", reps, "fig2"}, &stdout, &stderr); code != 2 {
			t.Errorf("-reps %s: exit %d, want 2", reps, code)
		}
		if !strings.Contains(stderr.String(), "usage:") || stdout.Len() != 0 {
			t.Errorf("-reps %s: want usage on stderr and nothing run, got stdout %q stderr %q",
				reps, stdout.String(), stderr.String())
		}
	}
}

// TestResolveAllAnyCase: "all" is matched like every experiment name —
// case-insensitively — and expands in place wherever it appears.
func TestResolveAllAnyCase(t *testing.T) {
	names := func(targets ...string) string {
		t.Helper()
		exps, err := resolve(targets)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range exps {
			out = append(out, e.name)
		}
		return strings.Join(out, " ")
	}
	all := strings.Join(allFigures, " ")
	for _, target := range []string{"all", "ALL", "All"} {
		if got := names(target); got != all {
			t.Errorf("resolve(%q) = %s, want %s", target, got, all)
		}
	}
	if got := names("CHAOS", "all"); got != "chaos "+all {
		t.Errorf("resolve(CHAOS, all) = %s", got)
	}
	if _, err := resolve([]string{"fig2", "nosuch"}); err == nil {
		t.Error("resolve accepted an unknown experiment")
	}
}

// TestUsageListsRegistry: the usage line is derived from the registry, so
// every runnable experiment appears in it.
func TestUsageListsRegistry(t *testing.T) {
	var b bytes.Buffer
	usage(&b)
	for _, e := range append(registry, experiment{name: "all"}) {
		if !strings.Contains(b.String(), e.name+"|") && !strings.Contains(b.String(), "|"+e.name+">") {
			t.Errorf("usage does not list %q:\n%s", e.name, b.String())
		}
	}
}

// TestRunWritesProfiles: -cpuprofile and -memprofile each leave a non-empty
// pprof file once the run ends, next to the normal report.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var stdout, stderr bytes.Buffer
	args := []string{"run", "-quick", "-reps", "1", "-cpuprofile", cpu, "-memprofile", mem, "fig2"}
	if code := csq(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Figure 2") {
		t.Errorf("no report on stdout:\n%s", stdout.String())
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", filepath.Base(path), err)
		}
	}
}

// TestFig1MatchesPlanviz: `csq run fig1` prints the plan lines, titles
// included, that the retired planviz command printed for `-example fig1`
// (recorded in testdata/planviz_fig1.txt), once leading whitespace is
// ignored and csq's "Figure 1" caption prefix is dropped.
func TestFig1MatchesPlanviz(t *testing.T) {
	rec, err := os.ReadFile("testdata/planviz_fig1.txt")
	if err != nil {
		t.Fatal(err)
	}
	exps, err := resolve([]string{"fig1"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runExperiments(&out, exps, experiments.Config{}, false); err != nil {
		t.Fatal(err)
	}
	lines := func(s string) []string {
		var ls []string
		for _, l := range strings.Split(s, "\n") {
			if l = strings.TrimLeft(l, " "); l != "" {
				ls = append(ls, strings.TrimPrefix(l, "Figure 1"))
			}
		}
		return ls
	}
	want, got := lines(string(rec)), lines(timing.ReplaceAllString(out.String(), ""))
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("csq run fig1:\n%s\nwant the plan lines of testdata/planviz_fig1.txt:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
