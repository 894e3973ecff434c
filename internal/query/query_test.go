package query

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func chain(n int, sel float64) *Query {
	q := &Query{ResultTupleBytes: 100}
	names := []string{"A", "B", "C", "D", "E", "F"}
	for i := 0; i < n; i++ {
		q.Relations = append(q.Relations, names[i])
		if i > 0 {
			q.Preds = append(q.Preds, Pred{A: names[i-1], B: names[i], Selectivity: sel})
		}
	}
	return q
}

func TestValidate(t *testing.T) {
	if err := chain(3, 1e-4).Validate(); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
	bad := []*Query{
		{Relations: []string{"A", "A"}, ResultTupleBytes: 100},
		{Relations: []string{"A"}, Preds: []Pred{{A: "A", B: "Z", Selectivity: 0.5}}, ResultTupleBytes: 100},
		{Relations: []string{"A"}, Preds: []Pred{{A: "A", B: "A", Selectivity: 0.5}}, ResultTupleBytes: 100},
		{Relations: []string{"A", "B"}, Preds: []Pred{{A: "A", B: "B", Selectivity: 0}}, ResultTupleBytes: 100},
		{Relations: []string{"A", "B"}, Preds: []Pred{{A: "A", B: "B", Selectivity: 2}}, ResultTupleBytes: 100},
		{Relations: []string{"A"}, Selects: map[string]float64{"Z": 0.5}, ResultTupleBytes: 100},
		{Relations: []string{"A"}, Selects: map[string]float64{"A": 0}, ResultTupleBytes: 100},
		{Relations: []string{"A"}, ResultTupleBytes: 0},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

// maskOf is the relation mask of the named relations of q.
func maskOf(q *Query, names ...string) uint64 {
	var m uint64
	for _, n := range names {
		m |= q.RelMask(n)
	}
	return m
}

func TestConnectivity(t *testing.T) {
	q := chain(4, 1e-4) // A-B-C-D
	set := func(names ...string) uint64 { return maskOf(q, names...) }
	if !q.Connected(set("A"), set("B")) {
		t.Error("A-B should be connected")
	}
	if q.Connected(set("A"), set("C")) {
		t.Error("A-C should not be connected (Cartesian product)")
	}
	if !q.Connected(set("A", "B"), set("C", "D")) {
		t.Error("AB-CD should connect via B-C")
	}
	if !q.Connected(set("A", "C"), set("B")) {
		t.Error("AC-B connects via both A-B and B-C")
	}
}

func TestJoinSelectivityMultiplies(t *testing.T) {
	q := chain(4, 0.5)
	set := func(names ...string) uint64 { return maskOf(q, names...) }
	// AC vs B crosses two predicates: A-B and B-C.
	got := q.JoinSelectivity(set("A", "C"), set("B"))
	if got != 0.25 {
		t.Errorf("selectivity = %g, want 0.25", got)
	}
	// Cartesian: no crossing predicates -> selectivity 1.
	if got := q.JoinSelectivity(set("A"), set("C")); got != 1.0 {
		t.Errorf("cartesian selectivity = %g, want 1", got)
	}
}

func TestSelectSelectivityDefault(t *testing.T) {
	q := chain(2, 1e-4)
	if got := q.SelectSelectivity("A"); got != 1.0 {
		t.Errorf("default selection selectivity = %g, want 1", got)
	}
	q.Selects = map[string]float64{"A": 0.1}
	if got := q.SelectSelectivity("A"); got != 0.1 {
		t.Errorf("selection selectivity = %g, want 0.1", got)
	}
}

// Property: CrossingPreds is symmetric in its arguments.
func TestQuickCrossingSymmetric(t *testing.T) {
	q := chain(6, 1e-4)
	names := []string{"A", "B", "C", "D", "E", "F"}
	f := func(maskA, maskB uint8) bool {
		var a, b uint64
		for i, n := range names {
			if maskA&(1<<i) != 0 {
				a |= q.RelMask(n)
			} else if maskB&(1<<i) != 0 {
				b |= q.RelMask(n)
			}
		}
		return slices.Equal(q.CrossingPreds(a, b), q.CrossingPreds(b, a)) &&
			q.Connected(a, b) == q.Connected(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// shapedQuery builds an n-relation query whose join graph is a chain, a
// star (relation 0 at the hub), a cycle or a clique.
func shapedQuery(shape string, n int) *Query {
	q := &Query{ResultTupleBytes: 100}
	for i := 0; i < n; i++ {
		q.Relations = append(q.Relations, fmt.Sprintf("R%d", i))
	}
	pred := func(i, j int) {
		q.Preds = append(q.Preds, Pred{A: q.Relations[i], B: q.Relations[j], Selectivity: 0.5})
	}
	for i := 1; i < n; i++ {
		switch shape {
		case "chain", "cycle":
			pred(i-1, i)
		case "star":
			pred(0, i)
		case "clique":
			for j := 0; j < i; j++ {
				pred(j, i)
			}
		}
	}
	if shape == "cycle" && n > 2 {
		pred(n-1, 0)
	}
	return q
}

// crossesByName is an independent reference for Connected: a scan over
// every predicate, testing its relations' positions in q.Relations against
// the two masks.
func crossesByName(q *Query, a, b uint64) bool {
	in := func(m uint64, rel string) bool {
		i := slices.Index(q.Relations, rel)
		return i >= 0 && m&(1<<uint(i)) != 0
	}
	for _, p := range q.Preds {
		if (in(a, p.A) && in(b, p.B)) || (in(a, p.B) && in(b, p.A)) {
			return true
		}
	}
	return false
}

// TestConnectedMaskMatchesConnected checks the adjacency-mask Connected, and
// whether CrossingPreds is empty, against a scan over the predicates, for
// random relation masks (disjoint, overlapping or empty) on each join-graph
// shape at several widths, up to the full 64 relations a mask can hold.
func TestConnectedMaskMatchesConnected(t *testing.T) {
	for _, shape := range []string{"chain", "star", "cycle", "clique"} {
		for _, n := range []int{2, 3, 7, 12, 64} {
			q := shapedQuery(shape, n)
			if err := q.Validate(); err != nil {
				t.Fatal(err)
			}
			full := ^uint64(0) >> (64 - uint(n))
			f := func(a, b uint64, disjoint bool) bool {
				a &= full
				b &= full
				if disjoint {
					b &^= a
				}
				want := crossesByName(q, a, b)
				return q.Connected(a, b) == want && (len(q.CrossingPreds(a, b)) > 0) == want
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Errorf("%s/%d: %v", shape, n, err)
			}
			// Single relations against the rest: sparse masks, which random
			// 64-bit words rarely produce.
			for i := 0; i < n; i++ {
				if !f(1<<uint(i), full, true) {
					t.Errorf("%s/%d: relation %d against the rest disagrees", shape, n, i)
				}
				for j := 0; j < n; j++ {
					if !f(1<<uint(i), 1<<uint(j), false) {
						t.Errorf("%s/%d: relations %d and %d disagree", shape, n, i, j)
					}
				}
			}
		}
	}
}

func TestValidateRejectsWideQuery(t *testing.T) {
	q := shapedQuery("chain", MaxRelations+1)
	err := q.Validate()
	if err == nil || !strings.Contains(err.Error(), "exceed the limit of 64") {
		t.Fatalf("Validate on %d relations = %v, want the width error", len(q.Relations), err)
	}
	if err := shapedQuery("chain", MaxRelations).Validate(); err != nil {
		t.Fatalf("Validate on %d relations: %v", MaxRelations, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("RelMask on an unvalidated wide query did not panic")
		}
	}()
	q.RelMask("R0")
}
