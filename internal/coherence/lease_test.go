package coherence

import (
	"math"
	"testing"
)

// TestLeaseTransitions walks the lease state machine through every
// grant/renew/expire/revoke edge as a table of steps applied to one lease.
func TestLeaseTransitions(t *testing.T) {
	type step struct {
		op      string // grant | renew | revoke | observe | fresh | !fresh
		now     float64
		dur     float64
		want    LeaseState // for grant/renew/revoke/observe: state after
		wantExp float64
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"zero value is ungranted", []step{
			{op: "observe", now: 0, want: LeaseNone},
			{op: "!fresh", now: 0},
		}},
		{"grant then expire lazily", []step{
			{op: "grant", now: 1, dur: 2, want: LeaseHeld, wantExp: 3},
			{op: "fresh", now: 2.9},
			{op: "observe", now: 2.9, want: LeaseHeld},
			{op: "!fresh", now: 3}, // boundary: now >= expiry is expired
			{op: "observe", now: 3.1, want: LeaseExpired},
		}},
		{"renew extends before expiry", []step{
			{op: "grant", now: 0, dur: 2, want: LeaseHeld, wantExp: 2},
			{op: "renew", now: 1, dur: 2, want: LeaseHeld, wantExp: 3},
			{op: "fresh", now: 2.5},
		}},
		{"renew never shortens (out-of-order contacts)", []step{
			{op: "grant", now: 5, dur: 2, want: LeaseHeld, wantExp: 7},
			// A contact initiated earlier completes later: its stamp must not
			// pull the promise back.
			{op: "renew", now: 4, dur: 2, want: LeaseHeld, wantExp: 7},
		}},
		{"renew after expiry regrants", []step{
			{op: "grant", now: 0, dur: 1, want: LeaseHeld, wantExp: 1},
			{op: "observe", now: 2, want: LeaseExpired},
			{op: "renew", now: 2, dur: 1, want: LeaseHeld, wantExp: 3},
			{op: "fresh", now: 2.5},
		}},
		{"revoke from held", []step{
			{op: "grant", now: 0, dur: 5, want: LeaseHeld, wantExp: 5},
			{op: "revoke", want: LeaseNone},
			{op: "!fresh", now: 1},
		}},
		{"revoke from expired", []step{
			{op: "grant", now: 0, dur: 1, want: LeaseHeld, wantExp: 1},
			{op: "observe", now: 2, want: LeaseExpired},
			{op: "revoke", want: LeaseNone},
		}},
		{"infinite lease never expires", []step{
			{op: "grant", now: 3, dur: 0, want: LeaseHeld, wantExp: math.Inf(1)},
			{op: "fresh", now: 1e12},
			{op: "observe", now: 1e12, want: LeaseHeld},
		}},
		{"finite renew of infinite lease keeps it infinite", []step{
			{op: "grant", now: 0, dur: 0, want: LeaseHeld, wantExp: math.Inf(1)},
			{op: "renew", now: 5, dur: 2, want: LeaseHeld, wantExp: math.Inf(1)},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var l Lease
			for i, s := range tc.steps {
				switch s.op {
				case "grant":
					l.Grant(s.now, s.dur)
				case "renew":
					l.Renew(s.now, s.dur)
				case "revoke":
					l.Revoke()
				case "observe":
					if got := l.Observe(s.now); got != s.want {
						t.Fatalf("step %d: Observe(%g) = %v, want %v", i, s.now, got, s.want)
					}
					continue
				case "fresh":
					if !l.Fresh(s.now) {
						t.Fatalf("step %d: Fresh(%g) = false, want true", i, s.now)
					}
					continue
				case "!fresh":
					if l.Fresh(s.now) {
						t.Fatalf("step %d: Fresh(%g) = true, want false", i, s.now)
					}
					continue
				}
				if l.State != s.want {
					t.Fatalf("step %d (%s): state %v, want %v", i, s.op, l.State, s.want)
				}
				if s.op != "revoke" && l.Expiry != s.wantExp {
					t.Fatalf("step %d (%s): expiry %g, want %g", i, s.op, l.Expiry, s.wantExp)
				}
			}
		})
	}
}

func TestLeaseStateString(t *testing.T) {
	for s, want := range map[LeaseState]string{
		LeaseNone: "none", LeaseHeld: "held", LeaseExpired: "expired", LeaseState(42): "invalid",
	} {
		if got := s.String(); got != want {
			t.Fatalf("LeaseState(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

// Package-level sinks: each benchmark's result is stored where the compiler
// cannot prove it dead, so the measured loop body is not optimized away.
var (
	leaseSink Lease
	freshSink bool
)

// The lease fast path sits inside every cached read; it must not allocate.
func BenchmarkLeaseGrant(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		leaseSink.Grant(float64(i), 0.5)
	}
}

func BenchmarkLeaseRenew(b *testing.B) {
	leaseSink.Grant(0, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		leaseSink.Renew(float64(i)*1e-9, 0.5)
	}
}

func BenchmarkLeaseFresh(b *testing.B) {
	var l Lease
	l.Grant(0, 1e18)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fresh := l.Fresh(float64(i) * 1e-9)
		if !fresh {
			b.Fatal("lease unexpectedly expired")
		}
		freshSink = fresh
	}
}
