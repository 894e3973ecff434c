package coherence

import (
	"math"
	"testing"
)

// TestLeaseTransitions walks a lease through every renew/expire/revoke edge
// as a table of steps applied to one lease; a renewal of the zero lease is
// its grant.
func TestLeaseTransitions(t *testing.T) {
	type step struct {
		op      string // renew | revoke | fresh | !fresh
		now     float64
		dur     float64
		wantExp float64 // for renew/revoke: the expiry after
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"zero value is ungranted", []step{
			{op: "!fresh", now: 0},
		}},
		{"grant then expire lazily", []step{
			{op: "renew", now: 1, dur: 2, wantExp: 3},
			{op: "fresh", now: 2.9},
			{op: "!fresh", now: 3}, // boundary: now >= expiry is expired
			{op: "!fresh", now: 3.1},
		}},
		{"renew extends before expiry", []step{
			{op: "renew", now: 0, dur: 2, wantExp: 2},
			{op: "renew", now: 1, dur: 2, wantExp: 3},
			{op: "fresh", now: 2.5},
		}},
		{"renew never shortens (out-of-order contacts)", []step{
			{op: "renew", now: 5, dur: 2, wantExp: 7},
			// A contact initiated earlier completes later: its stamp must not
			// pull the promise back.
			{op: "renew", now: 4, dur: 2, wantExp: 7},
			{op: "fresh", now: 6.5},
		}},
		{"late renewal after expiry stays expired", []step{
			{op: "renew", now: 0, dur: 2, wantExp: 2},
			{op: "!fresh", now: 3},
			// A contact initiated at 0.5 completes after the expiry was
			// observed. Its expiry, 1.5, is as past as the one it cannot
			// shorten, so the lease stays expired either way.
			{op: "renew", now: 0.5, dur: 1, wantExp: 2},
			{op: "!fresh", now: 3},
			{op: "renew", now: 3, dur: 1, wantExp: 4},
			{op: "fresh", now: 3.5},
		}},
		{"renew after expiry regrants", []step{
			{op: "renew", now: 0, dur: 1, wantExp: 1},
			{op: "!fresh", now: 2},
			{op: "renew", now: 2, dur: 1, wantExp: 3},
			{op: "fresh", now: 2.5},
		}},
		{"revoke from held", []step{
			{op: "renew", now: 0, dur: 5, wantExp: 5},
			{op: "revoke", wantExp: 0},
			{op: "!fresh", now: 1},
			{op: "renew", now: 1, dur: 1, wantExp: 2},
			{op: "fresh", now: 1.5},
		}},
		{"revoke from expired", []step{
			{op: "renew", now: 0, dur: 1, wantExp: 1},
			{op: "!fresh", now: 2},
			{op: "revoke", wantExp: 0},
			{op: "!fresh", now: 2},
		}},
		{"infinite lease never expires", []step{
			{op: "renew", now: 3, dur: 0, wantExp: math.Inf(1)},
			{op: "fresh", now: 1e12},
		}},
		{"finite renew of infinite lease keeps it infinite", []step{
			{op: "renew", now: 0, dur: 0, wantExp: math.Inf(1)},
			{op: "renew", now: 5, dur: 2, wantExp: math.Inf(1)},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var l Lease
			for i, s := range tc.steps {
				switch s.op {
				case "renew":
					l.Renew(s.now, s.dur)
				case "revoke":
					l.Revoke()
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
				if l.Expiry != s.wantExp {
					t.Fatalf("step %d (%s): expiry %g, want %g", i, s.op, l.Expiry, s.wantExp)
				}
			}
		})
	}
}

// Package-level sinks: each benchmark's result is stored where the compiler
// cannot prove it dead, so the measured loop body is not optimized away.
var (
	leaseSink Lease
	freshSink bool
)

// The lease fast path sits inside every cached read; it must not allocate.
func BenchmarkLeaseRenew(b *testing.B) {
	leaseSink.Renew(0, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		leaseSink.Renew(float64(i)*1e-9, 0.5)
	}
}

func BenchmarkLeaseFresh(b *testing.B) {
	var l Lease
	l.Renew(0, 1e18)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fresh := l.Fresh(float64(i) * 1e-9)
		if !fresh {
			b.Fatal("lease unexpectedly expired")
		}
		freshSink = fresh
	}
}
