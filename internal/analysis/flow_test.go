package analysis_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"hybridship/internal/analysis"
)

// flowSim is the sim-kernel stub shared by the flow-sensitive pass fixtures:
// just enough surface for the kernel-visible-op taxonomy (Spawn*, At,
// Resource, Buffer, Proc park points) to classify its methods as primitives.
const flowSim = `package sim

type Proc struct{ t float64 }

func (p *Proc) Hold(dt float64) { p.t += dt }
func (p *Proc) Block()          {}
func (p *Proc) Yield()          {}

type Simulator struct{}

func (s *Simulator) Spawn(name string, body func(*Proc)) { body(&Proc{}) }
func (s *Simulator) At(t float64, fn func())              {}
func (s *Simulator) SpawnDaemonLazy(namef func() string, body func(*Proc)) {
	_ = namef()
	body(&Proc{})
}
func (s *Simulator) SpawnClock(namef func() string, live bool, next func() (float64, bool), fire func()) {
	_ = namef()
}

type Task struct{ woken int }

func (t *Task) Wake()                 { t.woken++ }
func (t *Task) Hold(dt float64) bool { return dt == 0 }

type Resource struct{}

func (r *Resource) Use(p *Proc, dt float64)  { p.Hold(dt) }
func (r *Resource) UseRun(p *Proc, f func()) { f() }
func (r *Resource) Acquire(p *Proc)          {}
func (r *Resource) Release(p *Proc)          {}

type Buffer struct{ q []int }

func (b *Buffer) Put(p *Proc, v int) { b.q = append(b.q, v) }
func (b *Buffer) Get(p *Proc) (int, bool) {
	if len(b.q) == 0 {
		return 0, false
	}
	v := b.q[0]
	b.q = b.q[1:]
	return v, true
}
func (b *Buffer) PutNow(v int) { b.q = append(b.q, v) }
func (b *Buffer) Close(p *Proc) {}
`

// flowFixture exercises chargeflow, parksafe, and detreach with `// want`
// markers, both directions: every rule has a flagged case and a clean
// counterpart shaped one edit away from it.
var flowFixture = map[string]string{
	"go.mod":     "module flowfix\n\ngo 1.22\n",
	"sim/sim.go": flowSim,

	// chargeflow: the accumulator contract in the configured ExecPkg.
	"vexec/vec.go": `package vexec

import "flowfix/sim"

type chargeAcc struct{ pending float64 }

func (a *chargeAcc) add(x float64)     { a.pending += x }
func (a *chargeAcc) flush(p *sim.Proc) { p.Hold(a.pending); a.pending = 0 }

func (a *chargeAcc) addRun(xs []float64) {
	for _, x := range xs {
		a.pending += x
	}
}

func Bad(p *sim.Proc, acc *chargeAcc, buf *sim.Buffer) {
	acc.add(1)
	buf.Put(p, 1) // want chargeflow
}

func Good(p *sim.Proc, acc *chargeAcc, buf *sim.Buffer) {
	acc.flush(p)
	buf.Put(p, 1)
	acc.add(1)
	acc.flush(p)
	buf.Put(p, 2)
}

// A run of parts computed ahead (a page kernel's addRun) leaves the
// accumulator dirty, as add does.
func BadRun(p *sim.Proc, acc *chargeAcc, buf *sim.Buffer) {
	acc.flush(p)
	acc.addRun([]float64{1, 2})
	buf.Put(p, 1) // want chargeflow
}

func GoodRun(p *sim.Proc, acc *chargeAcc, buf *sim.Buffer) {
	acc.addRun([]float64{1, 2})
	acc.flush(p)
	buf.Put(p, 1)
}

func Branchy(p *sim.Proc, acc *chargeAcc, buf *sim.Buffer, cond bool) {
	if cond {
		acc.flush(p)
	}
	buf.Put(p, 1) // want chargeflow
}

func Fresh(p *sim.Proc, buf *sim.Buffer) {
	acc := &chargeAcc{}
	buf.Put(p, 1)
	acc.add(1)
	acc.flush(p)
}

func Loopy(p *sim.Proc, buf *sim.Buffer) {
	acc := &chargeAcc{}
	for i := 0; i < 4; i++ {
		buf.Put(p, i) // want chargeflow
		acc.add(1)
	}
	acc.flush(p)
}

func StaleAfterHelper(p *sim.Proc, acc *chargeAcc, buf *sim.Buffer) {
	acc.flush(p)
	fill(acc)
	buf.Put(p, 1) // want chargeflow
}

func fill(acc *chargeAcc) { acc.add(2) }

func Indirect(p *sim.Proc, acc *chargeAcc, buf *sim.Buffer, f func()) {
	acc.flush(p)
	f()
	buf.Put(p, 1)
}

func SendCloser(p *sim.Proc, buf *sim.Buffer) {
	acc := &chargeAcc{}
	send := func() {
		acc.flush(p)
		buf.Put(p, 1)
	}
	acc.add(1)
	send()
	acc.flush(p)
	buf.Put(p, 2)
}

// A kernel task's wake is kernel-visible, directly and through a helper
// (the shape of a disk's stall release).
type arm struct{ t *sim.Task }

func (a *arm) release() { a.t.Wake() }

func BadWake(p *sim.Proc, acc *chargeAcc, a *arm) {
	acc.add(1)
	a.release() // want chargeflow
}

func GoodWake(p *sim.Proc, acc *chargeAcc, a *arm) {
	acc.add(1)
	acc.flush(p)
	a.release()
	a.t.Wake()
}

// Scheduling a callback is kernel-visible (the shape of arming a
// watchdog).
func BadAt(p *sim.Proc, acc *chargeAcc, s *sim.Simulator, fire func()) {
	acc.add(1)
	s.At(1, fire) // want chargeflow
}

func GoodAt(p *sim.Proc, acc *chargeAcc, s *sim.Simulator, fire func()) {
	acc.add(1)
	acc.flush(p)
	s.At(1, fire)
}

// Starting a clock and a put that never waits are kernel-visible (the
// shapes of a fault stream and of the serve accept queue).
func BadClock(p *sim.Proc, acc *chargeAcc, s *sim.Simulator, buf *sim.Buffer, next func() (float64, bool)) {
	acc.add(1)
	s.SpawnClock(func() string { return "c" }, false, next, nil) // want chargeflow
	acc.flush(p)
	acc.add(1)
	buf.PutNow(1) // want chargeflow
}

func GoodClock(p *sim.Proc, acc *chargeAcc, s *sim.Simulator, buf *sim.Buffer, next func() (float64, bool)) {
	acc.add(1)
	acc.flush(p)
	s.SpawnClock(func() string { return "c" }, true, next, nil)
	buf.PutNow(1)
}

func Waived(p *sim.Proc, acc *chargeAcc, buf *sim.Buffer) {
	acc.add(1)
	buf.Put(p, 1) //hslint:allow chargeflow -- fixture: charge intentionally placed after the put
}
`,

	// parksafe: hold hygiene, checked in every package.
	"armed/armed.go": `package armed

import "flowfix/sim"

func GoodDefer(p *sim.Proc, r *sim.Resource) {
	r.Acquire(p)
	defer r.Release(p)
	p.Hold(1)
}

func NoDefer(p *sim.Proc, r *sim.Resource) {
	r.Acquire(p) // want parksafe
	p.Hold(1)
	r.Release(p)
}

func Leak(p *sim.Proc, r *sim.Resource) {
	r.Acquire(p) // want parksafe
	p.Hold(1)
}

func DeferInLoop(p *sim.Proc, rs []*sim.Resource) {
	for _, r := range rs {
		r.Acquire(p)
		defer r.Release(p) // want parksafe
		p.Hold(1)
	}
}

func UseOnly(p *sim.Proc, r *sim.Resource) {
	r.Use(p, 1)
}

func HandOff(p *sim.Proc, r *sim.Resource, done *sim.Buffer) {
	r.Acquire(p) //hslint:allow parksafe -- fixture: hold handed to the consumer, which releases it
	done.Put(p, 1)
}
`,

	// detreach: sinks in a helper package, flagged only when reachable from
	// a deterministic-package entry point.
	"helper/helper.go": `package helper

import (
	"sort"

	"flowfix/sim"
)

func Keys(m map[string]int) []string {
	var ks []string
	for k := range m { // want detreach
		ks = append(ks, k)
	}
	return ks
}

func Mid(m map[string]int) string { return deep(m) }

func deep(m map[string]int) string {
	for k := range m { // want detreach
		if k != "" {
			return k
		}
	}
	return ""
}

func Race(a, b chan int) int {
	select { // want detreach
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

func Sorted(m map[string]int) []string {
	var ks []string
	for k := range m { //hslint:allow detreach -- fixture: collection only, sorted below
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func Unreached(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

type Server struct {
	m    map[string]int
	keys []string
}

// NewServer hands the unexported run body to SpawnDaemonLazy as a method value —
// a reference edge, not a call edge; detreach must still see through it.
func NewServer(sm *sim.Simulator, m map[string]int) *Server {
	s := &Server{m: m}
	sm.SpawnDaemonLazy(func() string { return "srv" }, s.run)
	return s
}

func (s *Server) run(p *sim.Proc) {
	var ks []string
	for k := range s.m { // want detreach
		ks = append(ks, k)
	}
	s.keys = ks
}
`,

	// A timing-exempt package: nodeterm skips it, so reaching into it from
	// deterministic code is exactly detreach's business.
	"exempt/exempt.go": `package exempt

import "time"

func Stamp() int64 {
	return time.Now().UnixNano() // want detreach
}
`,

	// The deterministic package's entry points. Its own map range is
	// nodeterm's business, not detreach's.
	"det/det.go": `package det

import (
	"flowfix/exempt"
	"flowfix/helper"
	"flowfix/sim"
)

func Entry(m map[string]int) []string { return helper.Keys(m) }

func Chain(m map[string]int) string { return helper.Mid(m) }

func Pick(a, b chan int) int { return helper.Race(a, b) }

func SortedKeys(m map[string]int) []string { return helper.Sorted(m) }

func Boot(sm *sim.Simulator, m map[string]int) *helper.Server {
	return helper.NewServer(sm, m)
}

func Mark() int64 { return exempt.Stamp() }

func Local(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
`,
}

func flowConfig() *analysis.Config {
	return &analysis.Config{
		DeterministicPkgs:    []string{"flowfix/det"},
		SimPkg:               "flowfix/sim",
		TimingExemptPrefixes: []string{"flowfix/exempt"},
		ExecPkg:              "flowfix/vexec",
		ChargeAccType:        "chargeAcc",
	}
}

func flowAnalyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{analysis.Chargeflow, analysis.Parksafe, analysis.Detreach}
}

func TestFlowAnalyzersOnFixture(t *testing.T) {
	dir := writeFixture(t, flowFixture)
	mod, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	checkMarkers(t, dir, flowFixture, analysis.Run(mod, flowConfig(), flowAnalyzers()))
}

// TestFlowDiagnosticContent pins the parts of the messages triage depends
// on: the kernel-visible chain in chargeflow findings, the Use/defer advice
// in parksafe, and the entry-point call chain in detreach.
func TestFlowDiagnosticContent(t *testing.T) {
	dir := writeFixture(t, flowFixture)
	mod, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags := analysis.Run(mod, flowConfig(), flowAnalyzers())

	checks := []struct{ analyzer, file, substr string }{
		{"chargeflow", "vexec/vec.go", "accumulator acc may hold unflushed charges"},
		{"chargeflow", "vexec/vec.go", "kernel-visible (buffer: sim.(*Buffer).Put)"},
		{"chargeflow", "vexec/vec.go", "sim.(*Task).Wake"},
		{"chargeflow", "vexec/vec.go", "kernel-visible (timer: sim.(*Simulator).At)"},
		{"chargeflow", "vexec/vec.go", "kernel-visible (spawn: sim.(*Simulator).SpawnClock)"},
		{"chargeflow", "vexec/vec.go", "kernel-visible (buffer: sim.(*Buffer).PutNow)"},
		{"parksafe", "armed/armed.go", "defer r.Release(p)"},
		{"parksafe", "armed/armed.go", "inside a loop runs at function return"},
		{"detreach", "helper/helper.go", "det.Entry (det.Entry → helper.Keys)"},
		{"detreach", "helper/helper.go", "det.Chain → helper.Mid → helper.deep"},
		{"detreach", "helper/helper.go", "det.Boot → helper.NewServer → helper.(*Server).run"},
		{"detreach", "exempt/exempt.go", "wall-clock time.Now"},
	}
	for _, c := range checks {
		found := false
		for _, d := range diags {
			if d.Analyzer == c.analyzer && strings.HasSuffix(filepath.ToSlash(d.Pos.Filename), c.file) &&
				strings.Contains(d.Message, c.substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s diagnostic in %s containing %q", c.analyzer, c.file, c.substr)
			for _, d := range diags {
				t.Logf("reported: %s", d)
			}
		}
	}
}

// vnetFixture is the committed reproduction of the PR 7 vnetPair.vopen bug:
// a consumer-side accumulator (n.acc, flushed by the root process in vnext)
// that may hold charges at the producer-daemon spawn. With fixed=false the
// flush before the spawn is missing — the shipped bug; with fixed=true it is
// present — the current shape of exec's ops.go.
func vnetFixture(fixed bool) map[string]string {
	flush := ""
	if fixed {
		flush = "n.acc.flush(p)\n\t"
	}
	return map[string]string{
		"go.mod":     "module vnetfix\n\ngo 1.22\n",
		"sim/sim.go": flowSim,
		"vexec/vnet.go": fmt.Sprintf(`package vexec

import "vnetfix/sim"

type chargeAcc struct{ pending float64 }

func (a *chargeAcc) add(x float64)     { a.pending += x }
func (a *chargeAcc) flush(p *sim.Proc) { p.Hold(a.pending); a.pending = 0 }

type vnetPair struct {
	sim  *sim.Simulator
	buf  *sim.Buffer
	acc  *chargeAcc // consumer-side charges, the root process's obligation
	pacc *chargeAcc // producer-side charges, the daemon's obligation
}

func (n *vnetPair) vopen(p *sim.Proc) {
	%sn.sim.SpawnDaemonLazy(func() string { return "net" }, func(q *sim.Proc) {
		for {
			n.pacc.add(1)
			n.pacc.flush(q)
			n.buf.Put(q, 1)
		}
	})
}

func (n *vnetPair) vnext(p *sim.Proc) int {
	n.acc.flush(p)
	v, _ := n.buf.Get(p)
	n.acc.add(1)
	return v
}
`, flush),
	}
}

func vnetConfig() *analysis.Config {
	return &analysis.Config{
		SimPkg:        "vnetfix/sim",
		ExecPkg:       "vnetfix/vexec",
		ChargeAccType: "chargeAcc",
	}
}

// srcLine returns the 1-based line of the first occurrence of substr.
func srcLine(t *testing.T, src, substr string) int {
	t.Helper()
	for i, l := range strings.Split(src, "\n") {
		if strings.Contains(l, substr) {
			return i + 1
		}
	}
	t.Fatalf("fixture does not contain %q", substr)
	return 0
}

func runVnet(t *testing.T, fixed bool) (map[string]string, []analysis.Diagnostic) {
	t.Helper()
	fx := vnetFixture(fixed)
	dir := writeFixture(t, fx)
	mod, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return fx, analysis.Run(mod, vnetConfig(), []*analysis.Analyzer{analysis.Chargeflow})
}

func TestChargeflowPreFixVopen(t *testing.T) {
	fx, diags := runVnet(t, false)
	if len(diags) != 1 {
		for _, d := range diags {
			t.Logf("reported: %s", d)
		}
		t.Fatalf("pre-fix vopen shape: got %d finding(s), want exactly 1", len(diags))
	}
	d := diags[0]
	if want := srcLine(t, fx["vexec/vnet.go"], "SpawnDaemonLazy"); d.Pos.Line != want {
		t.Errorf("finding at line %d, want the spawn at line %d (%s)", d.Pos.Line, want, d)
	}
	if d.Analyzer != "chargeflow" {
		t.Errorf("finding from %q, want chargeflow", d.Analyzer)
	}
	for _, substr := range []string{"n.acc", "flush", "SpawnDaemonLazy"} {
		if !strings.Contains(d.Message, substr) {
			t.Errorf("finding %q does not name %q", d.Message, substr)
		}
	}
}

func TestChargeflowFixedVopen(t *testing.T) {
	_, diags := runVnet(t, true)
	for _, d := range diags {
		t.Errorf("fixed vopen shape: unexpected finding %s", d)
	}
}

// auditFixture exercises the -staleness waiver-hygiene audit: a live waiver
// (kept), a stale one on code with no finding, and a duplicate listing.
var auditFixture = map[string]string{
	"go.mod": "module auditfix\n\ngo 1.22\n",
	"det/det.go": `package det

func Keys(m map[string]int) []string {
	var ks []string
	for k := range m { //hslint:ordered -- live: caller sorts
		ks = append(ks, k)
	}
	return ks
}

func Stale() int {
	//hslint:allow nodeterm -- nothing nondeterministic left on this line
	return 1
}

func Dup(m map[string]int) []string {
	var ks []string
	for k := range m { //hslint:allow nodeterm,nodeterm -- same analyzer listed twice
		ks = append(ks, k)
	}
	return ks
}
`,
}

func TestAuditWaivers(t *testing.T) {
	dir := writeFixture(t, auditFixture)
	mod, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	cfg := &analysis.Config{DeterministicPkgs: []string{"auditfix/det"}}
	diags := analysis.AuditWaivers(mod, cfg, analysis.Analyzers())

	var stale, dup int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "stale waiver"):
			stale++
			if want := srcLine(t, auditFixture["det/det.go"], "nothing nondeterministic"); d.Pos.Line != want {
				t.Errorf("stale waiver reported at line %d, want %d (%s)", d.Pos.Line, want, d)
			}
		case strings.Contains(d.Message, "duplicate waiver"):
			dup++
			if want := srcLine(t, auditFixture["det/det.go"], "listed twice"); d.Pos.Line != want {
				t.Errorf("duplicate waiver reported at line %d, want %d (%s)", d.Pos.Line, want, d)
			}
		default:
			t.Errorf("unexpected audit finding: %s", d)
		}
	}
	if stale != 1 || dup != 1 {
		t.Errorf("got %d stale / %d duplicate finding(s), want 1 / 1", stale, dup)
	}
	// The clean repo property the CI step relies on: Run stays quiet while
	// the audit still fires, and vice versa for the live waiver.
	if n := len(analysis.Run(mod, cfg, analysis.Analyzers())); n != 0 {
		t.Errorf("Run reported %d finding(s) on the audit fixture, want 0 (all waived)", n)
	}
}

// spillFixture is the committed reproduction of the spill-seal bug: a
// partition sealing a page takes a chunk from the site's shared temp region
// (allocTemp, configured as shared state) while the accumulator handed in
// may still hold the caller's charges. With fixed=false the flush before the
// allocation is missing — the shipped bug, which made two joins on one
// server swap temp extents; with fixed=true it is present.
func spillFixture(fixed bool) map[string]string {
	flush := ""
	if fixed {
		flush = "acc.flush(p)\n\t"
	}
	return map[string]string{
		"go.mod":     "module spillfix\n\ngo 1.22\n",
		"sim/sim.go": flowSim,
		"vexec/spill.go": fmt.Sprintf(`package vexec

import "spillfix/sim"

type chargeAcc struct{ pending float64 }

func (a *chargeAcc) add(x float64)     { a.pending += x }
func (a *chargeAcc) flush(p *sim.Proc) { p.Hold(a.pending); a.pending = 0 }

type site struct{ tempNext int }

func (s *site) allocTemp(n int) int {
	a := s.tempNext
	s.tempNext += n
	return a
}

type partition struct{ next, left int }

func (pt *partition) complete(p *sim.Proc, s *site, acc *chargeAcc) {
	if pt.left == 0 {
		%spt.next = s.allocTemp(20)
		pt.left = 20
	}
	pt.left--
}
`, flush),
	}
}

func runSpill(t *testing.T, fixed bool) (map[string]string, []analysis.Diagnostic) {
	t.Helper()
	fx := spillFixture(fixed)
	dir := writeFixture(t, fx)
	mod, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	cfg := &analysis.Config{
		SimPkg:           "spillfix/sim",
		ExecPkg:          "spillfix/vexec",
		ChargeAccType:    "chargeAcc",
		SharedStateFuncs: []string{"(*spillfix/vexec.site).allocTemp"},
	}
	return fx, analysis.Run(mod, cfg, []*analysis.Analyzer{analysis.Chargeflow})
}

func TestChargeflowPreFixSpillSeal(t *testing.T) {
	fx, diags := runSpill(t, false)
	if len(diags) != 1 {
		for _, d := range diags {
			t.Logf("reported: %s", d)
		}
		t.Fatalf("pre-fix spill seal: got %d finding(s), want exactly 1", len(diags))
	}
	d := diags[0]
	if want := srcLine(t, fx["vexec/spill.go"], "s.allocTemp(20)"); d.Pos.Line != want {
		t.Errorf("finding at line %d, want the allocation at line %d (%s)", d.Pos.Line, want, d)
	}
	for _, substr := range []string{"allocTemp", "shared", "acc"} {
		if !strings.Contains(d.Message, substr) {
			t.Errorf("finding %q does not name %q", d.Message, substr)
		}
	}
}

func TestChargeflowFixedSpillSeal(t *testing.T) {
	if _, diags := runSpill(t, true); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("fixed spill seal: unexpected finding %s", d)
		}
	}
}
