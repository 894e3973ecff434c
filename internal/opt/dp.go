package opt

// A System-R-style dynamic-programming optimizer (Selinger et al., SIGMOD
// 1979), the second compile-time engine the paper's §5 names for the first
// step of 2-step optimization. It enumerates connected relation subsets
// bottom-up, keeping for each subset the cheapest annotated subplan per
// execution site, and avoids Cartesian products exactly like the randomized
// optimizer. Unlike the randomized optimizer it is deterministic and
// guarantees the optimal plan within its search space.
//
// The search space is controlled by the same policy rules (Table 1) and an
// optional left-deep restriction. Because the cost model's response-time
// metric is not separable (parallel subtrees interact), dynamic programming
// guarantees optimality only for the total-cost metric; for the other
// metrics it is a strong heuristic and the simulated annealing phase of
// 2-step optimization can still improve the final placement.

import (
	"fmt"
	"math"
	"sort"

	"hybridship/internal/catalog"
	"hybridship/internal/cost"
	"hybridship/internal/plan"
)

// DPOptions configures the dynamic-programming optimizer.
type DPOptions struct {
	Policy plan.Policy
	Metric cost.Metric
	// LeftDeepOnly restricts enumeration to left-deep trees, the classical
	// System-R space.
	LeftDeepOnly bool
}

// dpMaxRelations bounds the exponential subset enumeration.
const dpMaxRelations = 14

// DP is the deterministic optimizer.
type DP struct {
	model *cost.Model
	opts  DPOptions
}

// NewDP creates a System-R-style optimizer over the model's query/catalog.
func NewDP(model *cost.Model, opts DPOptions) *DP {
	return &DP{model: model, opts: opts}
}

// Optimize enumerates plans bottom-up and returns the best complete plan.
func (d *DP) Optimize() (Result, error) {
	q := d.model.Query
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	n := len(q.Relations)
	if n == 0 {
		return Result{}, fmt.Errorf("opt: query has no relations")
	}
	if n > dpMaxRelations {
		return Result{}, fmt.Errorf("opt: %d relations exceed the DP limit of %d", n, dpMaxRelations)
	}

	names := q.Relations
	var binder plan.Binder
	estimator := cost.NewEstimator(d.model)

	// best[mask] holds the cheapest subplan for the relation subset, one per
	// candidate execution "interface" — we keep the single cheapest plan per
	// mask per top-operator site, since the parent's cost depends on where
	// the subplan's output materializes. Each row is indexed by site+1 (the
	// client first), so walking it visits sites in ascending order and ties
	// break deterministically.
	type entry struct {
		tree  *plan.Node
		value float64
	}
	full := uint32(1)<<n - 1
	best := make([][]entry, full+1)

	consider := func(mask uint32, tree *plan.Node) {
		root := plan.NewDisplay(tree.Clone())
		sites, err := binder.Bind(root, d.model.Catalog, catalog.Client)
		if err != nil {
			return
		}
		v := estimator.Estimate(root, sites).Value(d.opts.Metric)
		slot := int(sites[1]) + 1 // the display's child is the subplan's top
		if slot >= len(best[mask]) {
			best[mask] = append(best[mask], make([]entry, slot+1-len(best[mask]))...)
		}
		if cur := best[mask][slot]; cur.tree == nil || v < cur.value {
			best[mask][slot] = entry{tree: tree, value: v}
		}
	}

	// Base cases: single-relation scans (with selections), per allowed scan
	// annotation.
	for i, name := range names {
		for _, ann := range plan.AllowedAnnotations(plan.KindScan, d.opts.Policy) {
			sc := plan.NewScan(name)
			sc.Ann = ann
			var tree *plan.Node = sc
			if _, ok := q.Selects[name]; ok {
				for _, sann := range plan.AllowedAnnotations(plan.KindSelect, d.opts.Policy) {
					sel := plan.NewSelect(sc.Clone(), name)
					sel.Ann = sann
					consider(1<<i, sel)
				}
				continue
			}
			consider(1<<i, tree)
		}
	}

	// Enumerate subsets in increasing popcount order.
	masks := make([]uint32, 0, full)
	for m := uint32(1); m <= full; m++ {
		masks = append(masks, m)
	}
	sort.Slice(masks, func(i, j int) bool {
		pi, pj := popcount(masks[i]), popcount(masks[j])
		if pi != pj {
			return pi < pj
		}
		return masks[i] < masks[j]
	})

	joinAnns := plan.AllowedAnnotations(plan.KindJoin, d.opts.Policy)
	for _, mask := range masks {
		if popcount(mask) < 2 {
			continue
		}
		// Split mask into left | right over all proper sub-masks.
		for left := (mask - 1) & mask; left > 0; left = (left - 1) & mask {
			right := mask ^ left
			if right == 0 {
				continue
			}
			if d.opts.LeftDeepOnly && popcount(right) != 1 {
				continue
			}
			if left > right && !d.opts.LeftDeepOnly {
				continue // each unordered split once; commute handled below
			}
			if best[left] == nil || best[right] == nil {
				continue
			}
			// Bit i of a DP mask is q.Relations[i], as in the query's masks.
			if !q.Connected(uint64(left), uint64(right)) {
				continue
			}
			for _, le := range best[left] {
				if le.tree == nil {
					continue
				}
				for _, re := range best[right] {
					if re.tree == nil {
						continue
					}
					for _, ann := range joinAnns {
						j := plan.NewJoin(le.tree.Clone(), re.tree.Clone())
						j.Ann = ann
						consider(mask, j)
						// Commuted build/probe sides, unless that would put
						// a join on the right in left-deep mode.
						if !d.opts.LeftDeepOnly || popcount(left) == 1 {
							jc := plan.NewJoin(re.tree.Clone(), le.tree.Clone())
							jc.Ann = ann
							consider(mask, jc)
						}
					}
				}
			}
		}
	}

	if best[full] == nil {
		return Result{}, fmt.Errorf("opt: join graph is disconnected")
	}
	winner := entry{value: math.Inf(1)}
	for _, e := range best[full] {
		if e.tree == nil {
			continue
		}
		tree := e.tree
		v := e.value
		if q.GroupBy > 0 {
			// Try both aggregation placements above this subplan and keep
			// the better complete plan.
			v = math.Inf(1)
			for _, ann := range plan.AllowedAnnotations(plan.KindAgg, d.opts.Policy) {
				agg := plan.NewAgg(e.tree.Clone())
				agg.Ann = ann
				cand := plan.NewDisplay(agg)
				sites, err := binder.Bind(cand, d.model.Catalog, catalog.Client)
				if err != nil {
					continue
				}
				if cv := estimator.Estimate(cand, sites).Value(d.opts.Metric); cv < v {
					v, tree = cv, agg
				}
			}
		}
		if v < winner.value {
			winner = entry{tree: tree, value: v}
		}
	}
	if winner.tree == nil {
		return Result{}, fmt.Errorf("opt: no well-formed complete plan")
	}
	root := plan.NewDisplay(winner.tree)
	b, err := plan.Bind(root, d.model.Catalog, catalog.Client)
	if err != nil {
		return Result{}, err
	}
	return Result{Plan: root, Binding: b, Estimate: d.model.Estimate(root, b)}, nil
}

func popcount(x uint32) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}
