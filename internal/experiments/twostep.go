package experiments

import (
	"fmt"
	"math/rand"

	"hybridship/internal/catalog"
	"hybridship/internal/cost"
	"hybridship/internal/exec"
	"hybridship/internal/plan"
	"hybridship/internal/query"
	"hybridship/internal/workload"
)

// The §5 experiments compare pre-compiled plans against an "ideal" plan
// optimized with full knowledge of the runtime state:
//
//   - static: the compile-time plan is executed as-is (its logical
//     annotations are bound against the runtime catalog, nothing else).
//   - 2-step: the compile-time join order is kept, but site selection is
//     redone at runtime by simulated annealing.
//
// Deep plans are compiled under the assumption that the database is
// centralized on a single site; bushy plans under the assumption that it is
// fully distributed, one relation per server (§5.2).

// compileDeep produces a left-deep compile-time plan against the assumed
// (centralized) catalog, minimizing total cost like a classical static
// optimizer — which concentrates every join on the single assumed site
// (§5.2).
func compileDeep(assumed *catalog.Catalog, q *query.Query, seed int64) (*plan.Node, error) {
	r := run{
		cat: assumed, q: q,
		policy: plan.HybridShipping, metric: cost.MetricTotalCost,
		maxAlloc: false, optSeed: seed, leftDeep: true,
	}
	res, err := r.optimize()
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// balancedBushyTree builds the canonical bushy join order over a chain:
// split the chain range in half recursively, so sibling subtrees are
// independent and can run in parallel. This is the plan shape §5.2 evaluates
// as "bushy"; compile-time optimization then performs site selection on it.
func balancedBushyTree(names []string) *plan.Node {
	if len(names) == 1 {
		return plan.NewScan(names[0])
	}
	mid := len(names) / 2
	return plan.NewJoin(balancedBushyTree(names[:mid]), balancedBushyTree(names[mid:]))
}

// compileBushy performs compile-time site selection over the balanced bushy
// join order against the assumed (fully distributed) catalog, minimizing
// response time — the objective that rewards bushy parallelism.
func compileBushy(assumed *catalog.Catalog, q *query.Query, seed int64) (*plan.Node, error) {
	tree := balancedBushyTree(q.Relations)
	root := plan.NewDisplay(tree)
	root.Walk(func(n *plan.Node) {
		n.Ann = plan.AllowedAnnotations(n.Kind, plan.HybridShipping)[0]
	})
	root.Walk(func(n *plan.Node) {
		if n.Kind == plan.KindScan {
			n.Ann = plan.AnnPrimary
		}
		if n.Kind == plan.KindJoin {
			n.Ann = plan.AnnInner
		}
	})
	r := run{
		cat: assumed, q: q,
		policy: plan.HybridShipping, metric: cost.MetricResponseTime,
		maxAlloc: false, optSeed: seed,
	}
	res, err := r.siteSelect(root)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// freezeBinding implements static-plan semantics (§5): the sites chosen for
// joins and selects at compile time (under the assumed catalog) are kept at
// execution time; scans and the display re-anchor to physical reality — data
// can only be read where its primary copy actually lives. Compile-time
// server numbers beyond the runtime population wrap around.
func freezeBinding(root *plan.Node, compileCat, runtimeCat *catalog.Catalog) (plan.Binding, error) {
	bc, err := plan.Bind(root, compileCat, catalog.Client)
	if err != nil {
		return nil, err
	}
	b := make(plan.Binding)
	var werr error
	root.Walk(func(n *plan.Node) {
		switch n.Kind {
		case plan.KindDisplay:
			b[n] = catalog.Client
		case plan.KindScan:
			if n.Ann == plan.AnnClient {
				b[n] = catalog.Client
				return
			}
			rel, ok := runtimeCat.Relation(n.Table)
			if !ok {
				werr = fmt.Errorf("experiments: relation %q missing at runtime", n.Table)
				return
			}
			b[n] = rel.Home
		default:
			s := bc[n]
			if s != catalog.Client {
				s = catalog.SiteID(int(s) % runtimeCat.NumServers)
			}
			b[n] = s
		}
	})
	return b, werr
}

// executeStatic runs a compile-time plan with its operator sites frozen.
func (r run) executeStatic(p *plan.Node, compileCat *catalog.Catalog) (exec.Result, error) {
	b, err := freezeBinding(p, compileCat, r.cat)
	if err != nil {
		return exec.Result{}, err
	}
	return exec.RunBound(r.execConfig(), p, b)
}

// centralizedCatalog is the compile-time assumption behind deep plans: the
// whole database on a single server.
func centralizedCatalog(nRels int) (*catalog.Catalog, error) {
	return workload.BuildCatalog(4096, 1, make([]catalog.SiteID, nRels))
}

// distributedCatalog is the compile-time assumption behind bushy plans: one
// relation per server.
func distributedCatalog(nRels int) (*catalog.Catalog, error) {
	placement := make([]catalog.SiteID, nRels)
	for i := range placement {
		placement[i] = catalog.SiteID(i)
	}
	return workload.BuildCatalog(4096, nRels, placement)
}

// twoStepFigure runs the Figure 10/11 shape: relative response time of
// {deep, bushy} x {static, 2-step} plans versus the ideal plan, as servers
// are added and the runtime placement is unknown at compile time.
func (c Config) twoStepFigure(id, title string, sel workload.Selectivity) (*Figure, error) {
	fig := &Figure{
		ID: id, Title: title,
		XLabel: "servers",
		YLabel: "relative response time",
	}
	const nRels = 10
	q := workload.ChainQuery(nRels, sel)
	next := workload.Next(sel)

	seriesNames := []string{"Deep Static", "Deep 2-Step", "Bushy Static", "Bushy 2-Step"}

	central, err := centralizedCatalog(nRels)
	if err != nil {
		return nil, err
	}
	distributed, err := distributedCatalog(nRels)
	if err != nil {
		return nil, err
	}

	sweep := c.serverSweep()
	// A cell is one (servers, rep) runtime state; the four flavors run
	// inside it, one ratio each, because they are normalized by one shared
	// ideal run.
	ratios, err := grid(len(sweep), c.reps(), func(ki, rep int) ([]float64, error) {
		k := sweep[ki]
		// Compile-time plans know nothing about the true placement.
		deepPlan, err := compileDeep(central, q, seedFor(c.Seed, int64(k), int64(rep), 10))
		if err != nil {
			return nil, err
		}
		bushyPlan, err := compileBushy(distributed, q, seedFor(c.Seed, int64(k), int64(rep), 11))
		if err != nil {
			return nil, err
		}

		// The runtime state: a random placement over k servers.
		rng := rand.New(rand.NewSource(seedFor(c.Seed, int64(k), int64(rep), 12)))
		trueCat, err := workload.BuildCatalog(4096, k, workload.PlaceRandom(rng, nRels, k))
		if err != nil {
			return nil, err
		}
		r := run{
			cat: trueCat, q: q,
			policy: plan.HybridShipping, metric: cost.MetricResponseTime,
			maxAlloc: false, next: next,
			optSeed: seedFor(c.Seed, int64(k), int64(rep), 13),
			simSeed: seedFor(c.Seed, int64(k), int64(rep), 14),
		}

		ideal, err := r.measure()
		if err != nil {
			return nil, err
		}
		if ideal.ResponseTime <= 0 {
			return nil, fmt.Errorf("experiments: ideal plan has zero response time")
		}

		var out []float64
		for _, flavor := range []struct {
			compiled   *plan.Node
			compileCat *catalog.Catalog
			twoStep    bool
		}{
			{deepPlan, central, false},
			{deepPlan, central, true},
			{bushyPlan, distributed, false},
			{bushyPlan, distributed, true},
		} {
			var res exec.Result
			if flavor.twoStep {
				p, err := r.siteSelect(flavor.compiled)
				if err != nil {
					return nil, err
				}
				res, err = r.executePlan(p)
				if err != nil {
					return nil, err
				}
			} else {
				res, err = r.executeStatic(flavor.compiled, flavor.compileCat)
				if err != nil {
					return nil, err
				}
			}
			out = append(out, res.ResponseTime/ideal.ResponseTime)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for fi, name := range seriesNames {
		fig.Series = append(fig.Series, curve(name, axis(sweep, 1), ratios,
			func(v []float64) float64 { return v[fi] }))
	}
	return fig, nil
}

// Fig10 reproduces "Relative Response Time, 10-Way Join; Vary Servers, No
// Caching, Min. Alloc, Deep and Bushy Plans".
func (c Config) Fig10() (*Figure, error) {
	return c.twoStepFigure("Figure 10",
		"Relative Response Time, 10-Way Join, Vary Servers, Min Alloc, Deep and Bushy Plans",
		workload.Moderate)
}

// Fig11 reproduces the same for the HiSel query (20% join participation).
func (c Config) Fig11() (*Figure, error) {
	return c.twoStepFigure("Figure 11",
		"Relative Response Time, HiSel 10-Way Join, Vary Servers, Min Alloc, Deep and Bushy Plans",
		workload.HiSel)
}

// Fig9Result reports the §5.1 worked example: communication of a statically
// compiled plan, its 2-step re-annotation, and the ideal plan, after the
// data has migrated between compile time and run time.
type Fig9Result struct {
	StaticPages  int64
	TwoStepPages int64
	IdealPages   int64
}

// Fig9 reproduces the data-migration example of Figure 9: a 4-way join whose
// relations are pairwise co-located at compile time (A,B on server 1 and C,D
// on server 2) but re-shuffled at run time (B,C together and A,D together).
func (c Config) Fig9() (*Fig9Result, error) {
	// Join graph: a 4-cycle A-B-C-D-A, so "all relations are joinable" the
	// way the example needs, and join results have the size of a base
	// relation.
	sel := 1.0 / float64(workload.DefaultTuples)
	q := &query.Query{
		Relations:        []string{"A", "B", "C", "D"},
		ResultTupleBytes: workload.DefaultTupleBytes,
		Preds: []query.Pred{
			{A: "A", B: "B", Selectivity: sel},
			{A: "B", B: "C", Selectivity: sel},
			{A: "C", B: "D", Selectivity: sel},
			{A: "D", B: "A", Selectivity: sel},
		},
	}
	addRels := func(cat *catalog.Catalog, homes map[string]catalog.SiteID) error {
		for _, n := range q.Relations {
			err := cat.AddRelation(catalog.Relation{
				Name: n, Tuples: workload.DefaultTuples,
				TupleBytes: workload.DefaultTupleBytes, Home: homes[n],
			})
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Compile-time placement: A,B co-located on server 0; C,D on server 1.
	compileCat := catalog.New(4096, 2)
	if err := addRels(compileCat, map[string]catalog.SiteID{"A": 0, "B": 0, "C": 1, "D": 1}); err != nil {
		return nil, err
	}
	// Runtime placement after migration: B,C at server 0; A,D at server 1.
	trueCat := catalog.New(4096, 2)
	if err := addRels(trueCat, map[string]catalog.SiteID{"A": 1, "B": 0, "C": 0, "D": 1}); err != nil {
		return nil, err
	}

	// The compile-time plan of Figure 9(a): (A ⋈ B) on the server producing
	// A, (C ⋈ D) on the server producing C, final join at the client.
	ab := plan.NewJoin(plan.NewScan("A"), plan.NewScan("B")) // inner: site of A
	cd := plan.NewJoin(plan.NewScan("C"), plan.NewScan("D")) // inner: site of C
	top := plan.NewJoin(ab, cd)
	top.Ann = plan.AnnConsumer // at the client, via display
	compiled := plan.NewDisplay(top)

	r := run{
		cat: trueCat, q: q,
		policy: plan.HybridShipping, metric: cost.MetricPagesSent,
		maxAlloc: true,
		// Join attribute: plain id equality on every edge (functional joins).
		next:    func(_ string, id int64) int64 { return id },
		optSeed: seedFor(c.Seed, 90), simSeed: seedFor(c.Seed, 91),
	}

	static, err := r.executeStatic(compiled, compileCat)
	if err != nil {
		return nil, err
	}
	twoStepPlan, err := r.siteSelect(compiled)
	if err != nil {
		return nil, err
	}
	twoStep, err := r.executePlan(twoStepPlan)
	if err != nil {
		return nil, err
	}
	ideal, err := r.measure()
	if err != nil {
		return nil, err
	}
	return &Fig9Result{
		StaticPages:  static.PagesSent,
		TwoStepPages: twoStep.PagesSent,
		IdealPages:   ideal.PagesSent,
	}, nil
}

// report renders the three page counts, each against the ideal plan's.
func (r *Fig9Result) report() *Report {
	row := func(name string, pages int64) Row {
		return Row{Fields: []Field{{"plan", "%-13s", name}, {"pages", "%5d", pages},
			{"ratio", " (%.2fx of ideal)", float64(pages) / float64(r.IdealPages)}}}
	}
	ideal := row("ideal plan", r.IdealPages)
	ideal.Fields = ideal.Fields[:2]
	return &Report{Tables: []*Table{{
		Title: "Figure 9: communication after data migration (pages sent)",
		Rows:  []Row{row("static plan", r.StaticPages), row("2-step plan", r.TwoStepPages), ideal},
	}}}
}
