package serve

import (
	"reflect"
	"runtime"
	"testing"

	"hybridship/internal/exec"
)

// clock is a settable test clock for the breaker's now() hook.
type clock struct{ t float64 }

func (c *clock) now() float64       { return c.t }
func (c *clock) advance(dt float64) { c.t += dt }

// Step opcodes for the table-driven state-machine tests.
const (
	opFail  = iota // ReportFailure(site, role)
	opSucc         // ReportSuccess(site, role)
	opAllow        // Allow(site, role), check the returned verdict
	opShed         // Shed(site, role), check the returned verdict
)

type step struct {
	advance   float64 // move the clock first
	op        int
	site      int
	role      int
	want      bool // for opAllow / opShed
	wantState int  // breaker state after the step
}

func TestBreakerStateMachine(t *testing.T) {
	// Cooldown 1 with jitter in [0.75, 1.25): advancing by 1.25 is always
	// past the probe time, advancing by 0.5 never is.
	params := BreakerParams{Threshold: 3, Cooldown: 1}
	cases := []struct {
		name  string
		steps []step
	}{
		{"closed stays closed below threshold", []step{
			{op: opAllow, want: true, wantState: StateClosed},
			{op: opFail, wantState: StateClosed},
			{op: opFail, wantState: StateClosed},
			{op: opAllow, want: true, wantState: StateClosed},
			{op: opShed, want: false, wantState: StateClosed},
		}},
		{"threshold consecutive failures open", []step{
			{op: opFail, wantState: StateClosed},
			{op: opFail, wantState: StateClosed},
			{op: opFail, wantState: StateOpen},
			{op: opAllow, want: false, wantState: StateOpen},
			{op: opShed, want: true, wantState: StateOpen},
		}},
		{"success resets the consecutive count", []step{
			{op: opFail, wantState: StateClosed},
			{op: opFail, wantState: StateClosed},
			{op: opSucc, wantState: StateClosed},
			{op: opFail, wantState: StateClosed},
			{op: opFail, wantState: StateClosed},
			{op: opAllow, want: true, wantState: StateClosed},
		}},
		{"probe granted once after cooldown, success closes", []step{
			{op: opFail}, {op: opFail}, {op: opFail, wantState: StateOpen},
			{advance: 0.5, op: opAllow, want: false, wantState: StateOpen},
			{advance: 0.75, op: opAllow, want: true, wantState: StateHalfOpen},
			{op: opShed, want: false, wantState: StateHalfOpen}, // the probe must run
			{op: opAllow, want: false, wantState: StateHalfOpen},
			{op: opSucc, wantState: StateClosed},
			{op: opAllow, want: true, wantState: StateClosed},
		}},
		{"probe failure re-opens", []step{
			{op: opFail}, {op: opFail}, {op: opFail, wantState: StateOpen},
			{advance: 1.25, op: opAllow, want: true, wantState: StateHalfOpen},
			{op: opFail, wantState: StateOpen},
			{op: opAllow, want: false, wantState: StateOpen},
			{advance: 1.25, op: opAllow, want: true, wantState: StateHalfOpen},
		}},
		{"stuck probe slot is reclaimed after ProbeTimeout", []step{
			{op: opFail}, {op: opFail}, {op: opFail, wantState: StateOpen},
			{advance: 1.25, op: opAllow, want: true, wantState: StateHalfOpen},
			{advance: 1.0, op: opAllow, want: false, wantState: StateHalfOpen},
			{advance: 1.0, op: opAllow, want: true, wantState: StateHalfOpen}, // 2.0 past the grant
		}},
		{"failures only charge their own site", []step{
			{op: opFail, site: 1}, {op: opFail, site: 1}, {op: opFail, site: 1, wantState: StateOpen},
			{op: opAllow, site: 0, want: true, wantState: StateClosed},
		}},
		{"failures only charge their own role", []step{
			{op: opFail, role: exec.RoleSecondary},
			{op: opFail, role: exec.RoleSecondary},
			{op: opFail, role: exec.RoleSecondary, wantState: StateOpen},
			{op: opAllow, role: exec.RolePrimary, want: true, wantState: StateClosed},
			{op: opShed, role: exec.RolePrimary, want: false, wantState: StateClosed},
		}},
		{"secondary recovery leaves the primary breaker open", []step{
			{op: opFail}, {op: opFail}, {op: opFail, wantState: StateOpen},
			{op: opSucc, role: exec.RoleSecondary, wantState: StateOpen},
			{op: opAllow, want: false, wantState: StateOpen},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &clock{}
			b := NewBreakerSet(clk.now, 2, 42, params)
			for i, st := range tc.steps {
				clk.advance(st.advance)
				var got, checked bool
				switch st.op {
				case opFail:
					b.ReportFailure(st.site, st.role)
				case opSucc:
					b.ReportSuccess(st.site, st.role)
				case opAllow:
					got, checked = b.Allow(st.site, st.role), true
				case opShed:
					got, checked = b.Shed(st.site, st.role), true
				}
				if checked && got != st.want {
					t.Fatalf("step %d: verdict = %v, want %v", i, got, st.want)
				}
				// wantState always refers to the breaker named by the step,
				// so cross-role cases read back the role they exercised —
				// except the two probes above, which check the primary.
				checkRole := st.role
				if tc.name == "secondary recovery leaves the primary breaker open" {
					checkRole = exec.RolePrimary
				}
				if b.State(st.site, checkRole) != st.wantState {
					t.Fatalf("step %d: state = %d, want %d", i, b.State(st.site, checkRole), st.wantState)
				}
			}
		})
	}
}

// TestBreakerProbeTimesDeterministic: the seeded probe schedule is a pure
// function of (seed, site, role, opened-count) — identical across GOMAXPROCS
// and jittered within [0.75, 1.25)×Cooldown. The secondary-role stream must
// differ from the primary stream (separate seed tags).
func TestBreakerProbeTimesDeterministic(t *testing.T) {
	schedule := func(role int) []float64 {
		clk := &clock{}
		b := NewBreakerSet(clk.now, 3, 7, BreakerParams{Threshold: 1, Cooldown: 1})
		var out []float64
		for round := 0; round < 5; round++ {
			for site := 0; site < 3; site++ {
				b.ReportFailure(site, role) // threshold 1: opens immediately
				out = append(out, b.at(site, role).probeAt-clk.t)
				clk.advance(2)
				if !b.Allow(site, role) {
					t.Fatalf("probe not due 2s after opening (cooldown jitter must stay below 1.25)")
				}
				b.ReportSuccess(site, role)
			}
		}
		return out
	}

	prev := runtime.GOMAXPROCS(1)
	one := schedule(exec.RolePrimary)
	runtime.GOMAXPROCS(8)
	eight := schedule(exec.RolePrimary)
	runtime.GOMAXPROCS(prev)

	if !reflect.DeepEqual(one, eight) {
		t.Fatalf("probe schedules diverge across GOMAXPROCS:\n got %v\nwant %v", eight, one)
	}
	for i, d := range one {
		if d < 0.75 || d >= 1.25 {
			t.Errorf("probe delay %d = %g outside the jitter window [0.75, 1.25)", i, d)
		}
	}
	// The jitter must actually vary across sites and rounds.
	allSame := true
	for _, d := range one[1:] {
		if d != one[0] {
			allSame = false
		}
	}
	if allSame {
		t.Error("every probe delay identical: jitter stream not wired")
	}

	secondary := schedule(exec.RoleSecondary)
	if reflect.DeepEqual(one, secondary) {
		t.Error("secondary-role probe schedule identical to primary: role tag not wired")
	}
	for i, d := range secondary {
		if d < 0.75 || d >= 1.25 {
			t.Errorf("secondary probe delay %d = %g outside the jitter window [0.75, 1.25)", i, d)
		}
	}
}

func TestBreakerZeroAllocChecks(t *testing.T) {
	clk := &clock{}
	b := NewBreakerSet(clk.now, 1, 1, BreakerParams{})
	if n := testing.AllocsPerRun(1000, func() {
		b.Allow(0, exec.RolePrimary)
		b.Shed(0, exec.RolePrimary)
		b.Allow(0, exec.RoleSecondary)
		b.Shed(0, exec.RoleSecondary)
	}); n != 0 {
		t.Errorf("Allow+Shed allocate %v per call, want 0", n)
	}
}
