// Package query defines the logical select-project-join queries of the study:
// a set of base relations, equijoin predicates with selectivities, and the
// projection applied to results. The benchmark workloads (§3.3) are chain
// joins; this package is agnostic to the join-graph shape.
package query

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// Pred is an equijoin predicate between two base relations. Selectivity is
// the classical join selectivity factor: |A ⋈ B| = |A|·|B|·Selectivity.
type Pred struct {
	A, B        string
	Selectivity float64
}

// Query is a select-project-join query over base relations.
type Query struct {
	Relations []string
	Preds     []Pred
	// ResultTupleBytes is the tuple width of every intermediate and final
	// result after projection. The paper projects all results to 100 bytes.
	ResultTupleBytes int
	// Selects maps a relation name to the selectivity of a selection applied
	// directly above its scan (1.0 or absent means no selection).
	Selects map[string]float64
	// GroupBy, when positive, adds a grouped aggregation at the top of the
	// query: the join result is reduced to GroupBy output groups before
	// being displayed. Aggregations are annotated like selections (paper
	// footnote 4) and may run at the client or at a producer site.
	GroupBy int

	// Lazily built relation-bitmask tables backing the allocation-free
	// relation-set methods (the optimizer's hot path evaluates thousands
	// of candidate plans per query). Guarded by maskOnce: Queries are
	// shared read-only across optimizer workers.
	maskOnce  sync.Once
	relMasks  map[string]uint64
	predMasks []predMask
	// near[k][v] is the join partners of the relations whose bits are v
	// shifted up by 8k: the union of their rows of the adjacency matrix.
	near [][256]uint64
}

type predMask struct {
	a, b uint64
	sel  float64
}

// Validate checks that the query fits a relation mask, that predicates
// reference declared relations and that selectivities are sane.
func (q *Query) Validate() error {
	if len(q.Relations) > MaxRelations {
		return fmt.Errorf("query: %d relations exceed the limit of %d", len(q.Relations), MaxRelations)
	}
	for i, r := range q.Relations {
		if slices.Contains(q.Relations[:i], r) {
			return fmt.Errorf("query: duplicate relation %q", r)
		}
	}
	declared := func(r string) bool { return slices.Contains(q.Relations, r) }
	for _, p := range q.Preds {
		if !declared(p.A) || !declared(p.B) {
			return fmt.Errorf("query: predicate %s=%s references undeclared relation", p.A, p.B)
		}
		if p.A == p.B {
			return fmt.Errorf("query: self-join predicate on %q not supported", p.A)
		}
		if p.Selectivity <= 0 || p.Selectivity > 1 {
			return fmt.Errorf("query: predicate %s=%s has selectivity %g outside (0,1]", p.A, p.B, p.Selectivity)
		}
	}
	// Check selections in sorted order: with several invalid entries, map
	// iteration order would decide which error the caller sees.
	selRels := make([]string, 0, len(q.Selects))
	for r := range q.Selects { //hslint:allow detreach -- key collection only; sorted immediately below, so order cannot reach the caller
		selRels = append(selRels, r)
	}
	sort.Strings(selRels)
	for _, r := range selRels {
		s := q.Selects[r]
		if !declared(r) {
			return fmt.Errorf("query: selection on undeclared relation %q", r)
		}
		if s <= 0 || s > 1 {
			return fmt.Errorf("query: selection on %q has selectivity %g outside (0,1]", r, s)
		}
	}
	if q.ResultTupleBytes <= 0 {
		return fmt.Errorf("query: result tuple bytes must be positive")
	}
	if q.GroupBy < 0 {
		return fmt.Errorf("query: GroupBy must be non-negative")
	}
	return nil
}

// MaxRelations is the widest query Validate accepts: every set of a
// query's relations is one uint64 bitmask, bit i standing for Relations[i].
const MaxRelations = 64

func (q *Query) initMasks() {
	if len(q.Relations) > MaxRelations {
		panic(fmt.Sprintf("query: %d relations exceed the %d a relation mask holds (Validate rejects such queries)",
			len(q.Relations), MaxRelations))
	}
	q.maskOnce.Do(func() {
		q.relMasks = make(map[string]uint64, len(q.Relations))
		for i, r := range q.Relations {
			q.relMasks[r] = 1 << uint(i)
		}
		q.predMasks = make([]predMask, 0, len(q.Preds))
		var adjacent [64]uint64 // per relation bit: the bits of its join partners
		for _, p := range q.Preds {
			pm := predMask{a: q.relMasks[p.A], b: q.relMasks[p.B], sel: p.Selectivity}
			q.predMasks = append(q.predMasks, pm)
			if pm.a != 0 && pm.b != 0 {
				adjacent[bits.TrailingZeros64(pm.a)] |= pm.b
				adjacent[bits.TrailingZeros64(pm.b)] |= pm.a
			}
		}
		q.near = make([][256]uint64, (len(q.Relations)+7)/8)
		for k := range q.near {
			for v := 1; v < 256; v++ {
				q.near[k][v] = q.near[k][v&(v-1)] | adjacent[8*k+bits.TrailingZeros8(uint8(v))]
			}
		}
	})
}

// RelMask returns the single-bit mask of a base relation, or 0 when the
// relation is unknown.
func (q *Query) RelMask(name string) uint64 {
	q.initMasks()
	return q.relMasks[name]
}

// crosses reports whether the predicate joins a relation of a to one of b.
func (p predMask) crosses(a, b uint64) bool {
	return (a&p.a != 0 && b&p.b != 0) || (a&p.b != 0 && b&p.a != 0)
}

// CrossingPreds returns the predicates connecting relation set a to set b,
// in Preds order.
func (q *Query) CrossingPreds(a, b uint64) []Pred {
	q.initMasks()
	var out []Pred
	for i, p := range q.predMasks {
		if p.crosses(a, b) {
			out = append(out, q.Preds[i])
		}
	}
	return out
}

// Connected reports whether joining relation sets a and b avoids a Cartesian
// product, i.e. at least one predicate crosses the two sets. It allocates
// nothing: a predicate crosses a and b exactly when some relation of a has a
// join partner in b, so it looks the partners of a up eight relations at a
// time instead of scanning every predicate.
func (q *Query) Connected(a, b uint64) bool {
	q.initMasks()
	var near uint64
	for k := range q.near { // bits past the relations have no partners
		near |= q.near[k][uint8(a>>(8*k))]
	}
	return near&b != 0
}

// JoinSelectivity returns the combined selectivity of all predicates crossing
// a and b (their product, in Preds order), or 1.0 for a Cartesian product.
// It allocates nothing.
func (q *Query) JoinSelectivity(a, b uint64) float64 {
	q.initMasks()
	sel := 1.0
	for _, p := range q.predMasks {
		if p.crosses(a, b) {
			sel *= p.sel
		}
	}
	return sel
}

// SelectSelectivity returns the selectivity of the selection on a relation,
// defaulting to 1.0.
func (q *Query) SelectSelectivity(rel string) float64 {
	if s, ok := q.Selects[rel]; ok {
		return s
	}
	return 1.0
}
