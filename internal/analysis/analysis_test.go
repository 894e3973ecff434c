package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hybridship/internal/analysis"
)

// The test harness is a stdlib-only stand-in for x/tools' analysistest: the
// fixture module below is written to a temp dir, loaded through the real
// loader (so `go list -export` and the gc importer are exercised too), and
// every line carrying a `// want a b ...` marker must produce exactly one
// diagnostic per listed analyzer on that line — no more, no fewer, and
// nothing anywhere else.
var fixture = map[string]string{
	"go.mod": "module fixture\n\ngo 1.22\n",

	// det is configured as a deterministic package.
	"det/det.go": `package det

func Sum(m map[string]float64) float64 {
	var t float64
	for _, v := range m { // want nodeterm
		t += v // want floatsum
	}
	return t
}

func Keys(m map[string]int) []string {
	var ks []string
	for k := range m { //hslint:ordered -- caller sorts; order cannot reach output
		ks = append(ks, k)
	}
	return ks
}

func Unsorted(m map[string]int) []string {
	var ks []string
	for k := range m { // want nodeterm
		ks = append(ks, k)
	}
	return ks
}

func Copy(dst, src map[string]int) {
	for k, v := range src {
		dst[k] = v
	}
}

func Find(m map[string]int) string {
	for k := range m { // want nodeterm
		if k == "x" {
			return k
		}
	}
	return ""
}
`,

	// det load clocks: a map range whose body can reach a kernel primitive
	// takes seqs in iteration order; one whose calls are pure, or that
	// ranges over a slice, does not.
	"det/load.go": `package det

import "fixture/sim"

func startLoad(s *sim.Simulator, id int) {
	s.SpawnTaskLazy(func() string { return "load" }, nil)
}

func halve(rate float64) float64 { return rate / 2 }

func SpawnLoads(s *sim.Simulator, load map[int]float64) {
	for id, rate := range load { // want nodeterm
		if rate > 0 {
			startLoad(s, id)
		}
	}
}

func SpawnLoadsInOrder(s *sim.Simulator, sites []int, load map[int]float64) {
	for _, id := range sites {
		if load[id] > 0 {
			startLoad(s, id)
		}
	}
}

func HalveLoads(load map[int]float64) {
	for id, rate := range load {
		load[id] = halve(rate)
	}
}
`,

	"det/clock.go": `package det

import (
	"math/rand"
	"time"
)

func Jitter() float64 {
	t0 := time.Now() // want nodeterm
	_ = time.Since(t0) // want nodeterm
	r := rand.New(rand.NewSource(1))
	return r.Float64() + rand.Float64() // want nodeterm
}
`,

	// det selects: multi-case and polling selects race on goroutine
	// scheduling; a single-case select is the plain channel op; a waiver
	// on the preceding line suppresses the finding.
	"det/sel.go": `package det

func Merge(a, b chan int) int {
	select { // want nodeterm
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

func Poll(a chan int) (int, bool) {
	select { // want nodeterm
	case v := <-a:
		return v, true
	default:
		return 0, false
	}
}

func Forward(a, b chan int) {
	v := <-a
	select {
	case b <- v:
	}
}

func MergeWaived(a, b chan int) int {
	//hslint:allow nodeterm -- fixture: both senders produce the same value
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}
`,

	// seedstuff is not deterministic: its selects are not nodeterm's
	// business (seedflow still applies module-wide).
	"seedstuff/sel.go": `package seedstuff

func Race(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}
`,

	// cmd/ is timing-exempt: entry points may time themselves.
	"cmd/tool/main.go": `package main

import (
	"fmt"
	"time"
)

func main() {
	fmt.Println(time.Now())
}
`,

	// seedstuff is neither seedmix nor deterministic; seedflow applies
	// module-wide.
	"seedstuff/seed.go": `package seedstuff

func Mix(seed uint64, site uint64) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15 // want seedflow seedflow
	h *= 0xbf58476d1ce4e5b9 // want seedflow
	return h ^ site
}
`,

	// The configured seedmix package may contain the arithmetic.
	"seedmix/seedmix.go": `package seedmix

func Derive(base int64) int64 {
	h := uint64(base) ^ 0x9e3779b97f4a7c15
	h *= 0xbf58476d1ce4e5b9
	return int64(h >> 1)
}
`,

	// sim is the configured kernel package: every function it defines is a
	// hot-path root.
	"sim/sim.go": `package sim

import "fmt"

type Proc struct{ name string }

type Simulator struct{}

func (s *Simulator) Spawn(name string, body func(*Proc)) *Proc { return &Proc{name: name} }
func (s *Simulator) SpawnLazyID(namef func(int64) string, id int64, body func(*Proc)) *Proc {
	return &Proc{name: namef(id)}
}
func (s *Simulator) SpawnDaemonLazy(namef func() string, body func(*Proc)) *Proc {
	return &Proc{name: namef()}
}

type Task struct{ name string }

func (s *Simulator) SpawnTaskLazy(namef func() string, step func(*Task)) *Task {
	return &Task{name: namef()}
}

func (s *Simulator) Hold(dt float64) {
	s.note("hold", dt)
}

func (s *Simulator) note(what string, dt float64) {
	_ = fmt.Sprintf("%s@%g", what, dt) // want simhot
	_ = what + "!" // want simhot
}

func (s *Simulator) fail(dt float64) {
	panic(fmt.Sprintf("bad hold %g", dt))
}
`,

	"hot/hot.go": `package hot

import (
	"fmt"

	"fixture/sim"
)

func Launch(s *sim.Simulator, i int) {
	s.Spawn(fmt.Sprintf("q%d", i), nil) // want simhot
	s.Spawn("d:"+suffix(i), nil) // want simhot
	s.Spawn("ok", nil)
	s.SpawnLazyID(func(id int64) string { return fmt.Sprintf("q%d", id) }, int64(i), nil)
	s.SpawnDaemonLazy(func() string { return fmt.Sprintf("d%d", i) }, nil)
}

func LaunchTasks(s *sim.Simulator, i int) {
	s.SpawnTaskLazy(func() string { return fmt.Sprintf("arm%d", i) }, nil)
}

func suffix(i int) string { return "x" }
`,

	// vexec is the configured engine package: functions declared in its
	// operator file (vec.go) are hot-path roots, and per-row Tuple
	// allocation is banned in everything they reach — including helpers in
	// other files of the package.
	"vexec/vec.go": `package vexec

func RunVec(rows int) []Tuple {
	out := make([]Tuple, 0, rows)
	for i := 0; i < rows; i++ {
		out = append(out, make(Tuple, 2)) // want simhot simhot
	}
	out = append(out, mergeRows(out[0], out[1])) // want simhot
	return out
}

func Header() Tuple {
	//hslint:allow simhot -- fixture: one header tuple per query, off the per-row path
	return make(Tuple, 4)
}

func gather(b *batch, v int64) {
	b.data = append(b.data, v)
}
`,

	"vexec/legacy.go": `package vexec

type Tuple []int64

type batch struct{ data []int64 }

func mergeRows(a, b Tuple) Tuple {
	out := make(Tuple, len(a)+len(b)) // want simhot
	copy(out, a)
	return append(out, b...)
}

func coldPath(n int) []Tuple {
	buf := make([]Tuple, 0, n)
	for i := 0; i < n; i++ {
		buf = append(buf, make(Tuple, 1))
	}
	return buf
}
`,

	// fsum is deterministic: goroutine-spawning loops must accumulate
	// slot-indexed, not into shared floats.
	"fsum/fsum.go": `package fsum

func Par(xs []float64) float64 {
	var sum float64
	res := make([]float64, len(xs))
	for i, x := range xs {
		i, x := i, x
		go func() {
			sum += x // want floatsum
			res[i] = x
		}()
	}
	var t float64
	for _, r := range res {
		t += r
	}
	return t
}
`,

	// Malformed waivers are themselves findings, and a malformed waiver
	// does not suppress the diagnostic it sits on.
	"waivers/waivers.go": `package waivers

import "time"

func Bad() time.Time {
	return time.Now() //hslint:allow nodeterm // want waiver nodeterm
}

//hslint:bogus -- not a directive // want waiver

func Sorted(m map[string]int) int {
	//hslint:allow nosuch -- names an unknown analyzer // want waiver
	return len(m)
}
`,
}

func testConfig() *analysis.Config {
	return &analysis.Config{
		DeterministicPkgs:    []string{"fixture/det", "fixture/fsum"},
		SeedMixPkg:           "fixture/seedmix",
		SimPkg:               "fixture/sim",
		TimingExemptPrefixes: []string{"fixture/cmd/"},
		ExecPkg:              "fixture/vexec",
		OpFiles:              []string{"vec.go"},
		RowType:              "Tuple",
	}
}

func writeFixture(t *testing.T, fixture map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range fixture {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// wantDiags parses the `// want a b` markers: one "file:line:analyzer" entry
// per token, as a multiset.
func wantDiags(fixture map[string]string) map[string]int {
	want := make(map[string]int)
	for name, src := range fixture {
		for i, line := range strings.Split(src, "\n") {
			_, mark, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, a := range strings.Fields(mark) {
				want[fmt.Sprintf("%s:%d:%s", name, i+1, a)]++
			}
		}
	}
	return want
}

// checkMarkers compares the diagnostics against the fixture's `// want`
// markers and reports every multiset difference.
func checkMarkers(t *testing.T, dir string, fixture map[string]string, diags []analysis.Diagnostic) {
	t.Helper()
	got := make(map[string]int)
	for _, d := range diags {
		rel, err := filepath.Rel(dir, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("%s:%d:%s", filepath.ToSlash(rel), d.Pos.Line, d.Analyzer)]++
	}

	want := wantDiags(fixture)
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: got %d diagnostic(s), want %d", k, got[k], want[k])
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("reported: %s", d)
		}
	}
}

func TestAnalyzersOnFixture(t *testing.T) {
	dir := writeFixture(t, fixture)
	mod, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if mod.Path != "fixture" {
		t.Fatalf("module path = %q, want %q", mod.Path, "fixture")
	}
	checkMarkers(t, dir, fixture, analysis.Run(mod, testConfig(), analysis.Analyzers()))
}

func TestDiagnosticFormat(t *testing.T) {
	dir := writeFixture(t, fixture)
	mod, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags := analysis.Run(mod, testConfig(), analysis.Analyzers())

	// The contract consumed by verify.sh and CI: "file:line: [analyzer]
	// message", and messages that tell the reader what to do instead.
	checks := []struct{ analyzer, file, substr string }{
		{"simhot", "hot/hot.go", "Spawn with an eagerly built name argument; use SpawnLazyID"},
		{"simhot", "vexec/vec.go", "columnar batch"},
		{"simhot", "vexec/legacy.go", "engine hot path"},
		{"seedflow", "seedstuff/seed.go", "use seedmix.Derive"},
		{"nodeterm", "det/det.go", "//hslint:ordered"},
		{"nodeterm", "det/load.go", "calls det.startLoad, which is kernel-visible (spawn: det.startLoad → sim.(*Simulator).SpawnTaskLazy)"},
		{"floatsum", "fsum/fsum.go", "slot-indexed"},
		{"waiver", "waivers/waivers.go", "reason"},
	}
	for _, c := range checks {
		found := false
		for _, d := range diags {
			if d.Analyzer == c.analyzer && strings.HasSuffix(filepath.ToSlash(d.Pos.Filename), c.file) &&
				strings.Contains(d.Message, c.substr) {
				found = true
				s := d.String()
				if !strings.Contains(s, fmt.Sprintf(": [%s] ", c.analyzer)) {
					t.Errorf("diagnostic %q does not follow file:line: [analyzer] message", s)
				}
				break
			}
		}
		if !found {
			t.Errorf("no %s diagnostic in %s containing %q", c.analyzer, c.file, c.substr)
		}
	}
}

func TestWaiverListing(t *testing.T) {
	dir := writeFixture(t, fixture)
	mod, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	ws := mod.Waivers()
	var valid, malformed int
	for _, w := range ws {
		if w.Err != "" {
			malformed++
			continue
		}
		valid++
		if w.Reason == "" {
			t.Errorf("%s:%d: well-formed waiver with empty reason", w.File, w.Line)
		}
	}
	// det/det.go, det/sel.go, and vexec/vec.go each have one fully valid
	// waiver; waivers/waivers.go has one well-formed (unknown analyzer) and
	// two malformed ones.
	if valid != 4 || malformed != 2 {
		t.Errorf("got %d valid / %d malformed waivers, want 4 / 2", valid, malformed)
	}
}
