package exec

import (
	"maps"
	"math/bits"
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/plan"
	"hybridship/internal/query"
	"hybridship/internal/sim"
	"hybridship/internal/workload"
)

// TestOperatorPageWidths: every page an operator returns is as wide as its
// subtree's relation count, with relation slots in ascending order, and an
// aggregate's pages hold (group, count). Each plan node's subtree is built
// and drained on its own, so every scan, selection, join and aggregate of
// the plan is checked, spilling joins and network pairs included. The
// layout is checked by value: under HiSel, R_{i+1}'s id is 5 × R_i's in
// every joined row, so two columns in the wrong order break a predicate,
// and a selection's rows all pass its relation's filter, read from that
// relation's column (R1's, above a join, is not the page's first).
func TestOperatorPageWidths(t *testing.T) {
	r := plan.NewScan
	sel := func() *plan.Node { return plan.NewSelect(r("R0"), "R0") }
	for _, tc := range []struct {
		name     string
		root     *plan.Node
		pol      plan.Policy
		maxAlloc bool
	}{
		{"leftdeep/QS/min", plan.NewJoin(plan.NewJoin(plan.NewJoin(r("R0"), r("R1")), r("R2")), r("R3")), plan.QueryShipping, false},
		{"leftdeep/DS/max", plan.NewJoin(plan.NewJoin(plan.NewJoin(r("R0"), r("R1")), r("R2")), r("R3")), plan.DataShipping, true},
		{"rightdeep/HY/min", plan.NewJoin(r("R3"), plan.NewJoin(r("R2"), plan.NewJoin(r("R1"), r("R0")))), plan.HybridShipping, false},
		{"bushy/HY/min", plan.NewJoin(plan.NewJoin(r("R2"), r("R3")), plan.NewJoin(r("R0"), r("R1"))), plan.HybridShipping, false},
		{"select-agg/QS/min", plan.NewAgg(plan.NewJoin(plan.NewJoin(r("R1"), sel()), r("R2"))), plan.QueryShipping, false},
		{"select-agg/DS/max", plan.NewAgg(plan.NewJoin(r("R2"), plan.NewJoin(sel(), r("R1")))), plan.DataShipping, true},
		{"select-join/QS/min", plan.NewJoin(plan.NewSelect(plan.NewJoin(r("R0"), r("R1")), "R1"), r("R2")), plan.QueryShipping, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := chainConfig(t, 4, 2, workload.HiSel, tc.maxAlloc)
			cfg.Query.Selects = map[string]float64{"R0": 0.5, "R1": 0.5}
			cfg.Query.GroupBy = 7
			cfg.Pass = func(rel string, id int64) bool {
				switch rel {
				case "R0":
					return id%2 == 0
				case "R1":
					return id%10 < 5
				}
				return true
			}
			bound := mustBind(t, &cfg, annotate(plan.NewDisplay(tc.root), tc.pol))
			s, _, err := newSession(cfg, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			e, q := s.e, cfg.Query
			spilled := false
			e.sim.Spawn("widths", func(p *sim.Proc) {
				eff, ok := e.rebind(bound)
				if !ok {
					t.Error("plan not runnable")
					return
				}
				att := e.newAttempt(p, bound, eff)
				for i := range bound.flat.Nodes {
					nd, mask := &bound.flat.Nodes[i], bound.facts[i].mask
					if nd.Kind == plan.KindDisplay {
						continue
					}
					want := bits.OnesCount64(mask)
					if nd.Kind == plan.KindAgg {
						want = 2
					}
					acc := &chargeAcc{}
					it := e.build(bound, eff, int32(i), eff[i], att, acc)
					it.open(p)
					rows := 0
					for {
						b, ok := it.next(p)
						if !ok {
							break
						}
						rows += b.n
						if b.w != want {
							t.Errorf("node %d (%v, mask %#b): page of %d columns, want %d", i, nd.Kind, mask, b.w, want)
						} else if nd.Kind != plan.KindAgg {
							checkSlots(t, q, cfg.Next, mask, b)
						}
						if rel := bound.flat.Src[i].Rel; nd.Kind == plan.KindSelect {
							for _, id := range b.col(slotCol(mask, q.RelMask(rel)))[:b.n] {
								if !cfg.Pass(rel, id) {
									t.Errorf("node %d (select %s): row of id %d fails the filter", i, rel, id)
									break
								}
							}
						}
						e.pool.put(b)
					}
					it.close(p)
					acc.flush(p)
					if j, ok := it.(*hashJoin); ok && j.al.nParts > 0 {
						spilled = true
					}
					if rows == 0 {
						t.Errorf("node %d (%v): no rows; the check is not exercising its pages", i, nd.Kind)
					}
				}
			})
			e.sim.Run()
			if !tc.maxAlloc && !spilled {
				t.Error("no join at its own site spilled; the check is not exercising partition pages")
			}
		})
	}
}

// checkSlots checks page b of a subtree of the given mask by value: each
// predicate A.next = B.id whose relations both lie in mask holds on every
// row, reading A and B from their slots' columns.
func checkSlots(t *testing.T, q *query.Query, next func(string, int64) int64, mask uint64, b *colBatch) {
	t.Helper()
	for _, pr := range q.Preds {
		a, c := q.RelMask(pr.A), q.RelMask(pr.B)
		if mask&a == 0 || mask&c == 0 {
			continue
		}
		ca, cb := b.col(slotCol(mask, a)), b.col(slotCol(mask, c))
		for i := 0; i < b.n; i++ {
			if next(pr.A, ca[i]) != cb[i] {
				t.Errorf("mask %#b, row %d: %s = %d and %s = %d break %s.next = %s.id",
					mask, i, pr.A, ca[i], pr.B, cb[i], pr.A, pr.B)
				return
			}
		}
	}
}

// TestAggFoldsSlotOrder: an aggregate over a narrow page groups its rows by
// the hash of their relation ids folded in ascending slot order, the hash a
// fold over every slot of the query that skips the relations outside the
// subtree gives. The input pages carry slots 1 and 3 of four, and the
// (group, count) pages must equal that full-width fold's counts.
func TestAggFoldsSlotOrder(t *testing.T) {
	var tr []kernelDispatch
	e := kernelSession(t, &tr)
	e.cfg.Query.GroupBy = 64
	slots := []int{1, 3}
	var pages [][]kernelRow
	want := map[int64]int64{}
	for pg := range 3 {
		var rows []kernelRow
		for i := range 50 {
			r := kernelRow{noSlot, int64(pg*50 + i), noSlot, int64(7 * i % 23)}
			rows = append(rows, r)
			var h uint64
			for _, id := range r {
				if id != noSlot {
					h = mix64(h ^ uint64(id))
				}
			}
			want[int64(h%64)]++
		}
		pages = append(pages, rows)
	}
	agg := e.newAgg(catalog.Client, &kernelIter{e: e, slots: slots, pages: pages}, &chargeAcc{})
	got := map[int64]int64{}
	e.sim.Spawn("agg", func(p *sim.Proc) {
		agg.open(p)
		for {
			b, ok := agg.next(p)
			if !ok {
				break
			}
			for i := range b.n {
				got[b.col(0)[i]] = b.col(1)[i]
			}
			e.pool.put(b)
		}
		agg.close(p)
		agg.acc.flush(p)
	})
	e.sim.Run()
	if !maps.Equal(got, want) {
		t.Errorf("group counts %v, want the full-width fold's %v", got, want)
	}
}
