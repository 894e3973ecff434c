package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybridship/internal/plan"
	"hybridship/internal/workload"
)

// mustBind binds root's annotations and checks the binding, as
// Session.Bind does.
func mustBind(t testing.TB, cfg *Config, root *plan.Node) *BoundPlan {
	t.Helper()
	bp, err := bind(cfg, root)
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

// refEstCard, refTables and refEstPages are the engine's former per-join
// recursions over the plan tree, kept as the reference that bindPlan's
// one-pass estimates must match bit for bit.
func refEstCard(cfg *Config, n *plan.Node) (float64, int) {
	switch n.Kind {
	case plan.KindScan:
		r := cfg.Catalog.MustRelation(n.Table)
		return float64(r.Tuples), r.TupleBytes
	case plan.KindSelect:
		card, bytes := refEstCard(cfg, n.Left)
		return card * cfg.Query.SelectSelectivity(n.Rel), bytes
	case plan.KindJoin:
		cl, _ := refEstCard(cfg, n.Left)
		cr, _ := refEstCard(cfg, n.Right)
		sel := cfg.Query.JoinSelectivity(refTables(cfg, n.Left), refTables(cfg, n.Right))
		return cl * cr * sel, cfg.Query.ResultTupleBytes
	case plan.KindAgg:
		card, bytes := refEstCard(cfg, n.Left)
		if g := float64(cfg.Query.GroupBy); g > 0 && g < card {
			card = g
		}
		return card, bytes
	}
	panic("refEstCard on non-relational node")
}

func refTables(cfg *Config, n *plan.Node) uint64 {
	var m uint64
	n.Walk(func(s *plan.Node) {
		if s.Kind == plan.KindScan {
			m |= cfg.Query.RelMask(s.Table)
		}
	})
	return m
}

func refEstPages(cfg *Config, n *plan.Node) int {
	card, bytes := refEstCard(cfg, n)
	if card <= 0 {
		return 0
	}
	return int(math.Ceil(card / float64(tuplesPerPage(cfg.Params.PageSize, bytes))))
}

// checkEstimates compares every node's one-pass estimate with the
// recursive reference.
func checkEstimates(t *testing.T, name string, cfg *Config, root *plan.Node) {
	t.Helper()
	bp := mustBind(t, cfg, root)
	i := 0
	root.Walk(func(n *plan.Node) {
		defer func() { i++ }()
		if n.Kind == plan.KindDisplay {
			return
		}
		got := bp.facts[i]
		if want := refTables(cfg, n); got.mask != want {
			t.Errorf("%s: node %d (%v) mask %#x, want %#x", name, i, n.Kind, got.mask, want)
		}
		if want := refEstPages(cfg, n); got.pages != want {
			t.Errorf("%s: node %d (%v) estimated pages %d, want %d", name, i, n.Kind, got.pages, want)
		}
	})
	if i != len(bp.facts) {
		t.Errorf("%s: %d estimates for %d nodes", name, len(bp.facts), i)
	}
}

// TestBoundEstimatesMatchRecursion checks the one-pass per-node masks and
// estimated pages against the recursive reference on the plans of the
// engine goldens and on generated left-deep and bushy plans, 2- to 10-way,
// with selections and an aggregate.
func TestBoundEstimatesMatchRecursion(t *testing.T) {
	// The engine-golden plans (annotations do not enter the estimates).
	for n := 2; n <= 5; n++ {
		cfg := chainConfig(t, n, 2, workload.Moderate, false)
		checkEstimates(t, fmt.Sprintf("chain%d", n), &cfg, leftDeepChain(n))
	}
	cfg := chainConfig(t, 5, 2, workload.Moderate, false)
	checkEstimates(t, "hybrid5", &cfg, hybridChain(5))
	cfg = Config{
		Params:  DefaultParams(),
		Catalog: partialPageCatalog(t, 3, 2),
		Query:   workload.ChainQuery(3, workload.Moderate),
	}
	checkEstimates(t, "partial-page", &cfg, leftDeepChain(3))
	cfg = chainConfig(t, 3, 2, workload.Moderate, false)
	cfg.Query.Selects = map[string]float64{"R0": 0.3}
	cfg.Query.GroupBy = 7
	sel := plan.NewSelect(plan.NewScan("R0"), "R0")
	checkEstimates(t, "select-agg", &cfg,
		plan.NewDisplay(plan.NewAgg(plan.NewJoin(plan.NewJoin(sel, plan.NewScan("R1")), plan.NewScan("R2")))))
	cfg, root := loadFig8Cell(t)
	checkEstimates(t, "fig8", &cfg, root)

	// Generated plans: every relation behind a selection with probability
	// 1/2, joined left-deep or in random bushy shapes, under an aggregate.
	rng := rand.New(rand.NewSource(23))
	for n := 2; n <= 10; n++ {
		for _, sel := range []workload.Selectivity{workload.Moderate, workload.HiSel} {
			cfg := chainConfig(t, n, 3, sel, false)
			cfg.Query.Selects = map[string]float64{}
			cfg.Query.GroupBy = 1 + rng.Intn(5000)
			for rep := 0; rep < 4; rep++ {
				inputs := make([]*plan.Node, n)
				for i := range inputs {
					name := workload.RelName(i)
					inputs[i] = plan.NewScan(name)
					if rng.Intn(2) == 0 {
						cfg.Query.Selects[name] = 0.05 + 0.9*rng.Float64()
						inputs[i] = plan.NewSelect(inputs[i], name)
					}
				}
				bushy := rep%2 == 1
				for len(inputs) > 1 {
					i := 0
					if bushy {
						i = rng.Intn(len(inputs) - 1)
					}
					j := plan.NewJoin(inputs[i], inputs[i+1])
					inputs = append(inputs[:i], append([]*plan.Node{j}, inputs[i+2:]...)...)
				}
				root := plan.NewDisplay(plan.NewAgg(inputs[0]))
				checkEstimates(t, fmt.Sprintf("gen%d/%v/bushy=%v/%d", n, sel, bushy, rep), &cfg, root)
			}
		}
	}
}
