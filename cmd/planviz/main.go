// Command planviz optimizes a chain-join query under a chosen policy and
// prints the resulting annotated plan, both as logical annotations and bound
// to physical sites — the same views as Figure 1 of the paper.
//
// Usage:
//
//	planviz -relations 4 -servers 2 -policy HY -metric rt -cached 0.5
//	planviz -example fig1
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hybridship/internal/catalog"
	"hybridship/internal/cost"
	"hybridship/internal/opt"
	"hybridship/internal/plan"
	"hybridship/internal/workload"
)

func main() {
	relations := flag.Int("relations", 4, "number of chain relations (2 to 64)")
	servers := flag.Int("servers", 2, "number of servers")
	policy := flag.String("policy", "HY", "execution policy: DS, QS, or HY")
	metric := flag.String("metric", "rt", "optimization metric: rt, cost, or pages")
	cached := flag.Float64("cached", 0, "fraction of each relation cached at the client")
	hisel := flag.Bool("hisel", false, "use the HiSel (20% participation) workload")
	seed := flag.Int64("seed", 1, "optimizer seed")
	example := flag.String("example", "", "print a fixed example instead: fig1")
	flag.Parse()

	if *example == "fig1" {
		printFig1()
		return
	}

	pol, ok := map[string]plan.Policy{
		"DS": plan.DataShipping, "QS": plan.QueryShipping, "HY": plan.HybridShipping,
	}[strings.ToUpper(*policy)]
	if !ok {
		fmt.Fprintln(os.Stderr, "policy must be DS, QS, or HY")
		os.Exit(2)
	}
	met, ok := map[string]cost.Metric{
		"rt": cost.MetricResponseTime, "cost": cost.MetricTotalCost, "pages": cost.MetricPagesSent,
	}[strings.ToLower(*metric)]
	if !ok {
		fmt.Fprintln(os.Stderr, "metric must be rt, cost, or pages")
		os.Exit(2)
	}

	sel := workload.Moderate
	if *hisel {
		sel = workload.HiSel
	}
	cat, err := workload.BuildCatalog(4096, *servers, workload.PlaceRoundRobin(*relations, *servers))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := workload.CacheAllFraction(cat, *cached); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	q := workload.ChainQuery(*relations, sel)
	model := &cost.Model{Params: cost.DefaultParams(), Catalog: cat, Query: q}
	res, err := opt.New(model, opt.DefaultOptions(pol, met, *seed)).Optimize()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("%d-way %s chain join, %d server(s), %.0f%% cached, policy %v, minimizing %v\n\n",
		*relations, sel, *servers, *cached*100, pol, met)
	fmt.Println(plan.FormatBound(res.Plan, res.Binding))
	fmt.Printf("estimates: response time %.3fs, total cost %.3fs, pages sent %.0f\n",
		res.Estimate.ResponseTime, res.Estimate.TotalCost, res.Estimate.PagesSent)
}

// printFig1 reproduces the three example annotated plans of Figure 1.
func printFig1() {
	cat := catalog.New(4096, 2)
	for i, n := range []string{"A", "B", "C", "D"} {
		if err := cat.AddRelation(catalog.Relation{
			Name: n, Tuples: 10000, TupleBytes: 100, Home: catalog.SiteID(i % 2),
		}); err != nil {
			panic(err)
		}
	}
	build := func(annJoin1, annJoin2, annJoin3 plan.Annotation, scanAnns [4]plan.Annotation) *plan.Node {
		scans := make([]*plan.Node, 4)
		for i, n := range []string{"A", "B", "C", "D"} {
			scans[i] = plan.NewScan(n)
			scans[i].Ann = scanAnns[i]
		}
		j1 := plan.NewJoin(scans[0], scans[1])
		j1.Ann = annJoin1
		j2 := plan.NewJoin(j1, scans[2])
		j2.Ann = annJoin2
		j3 := plan.NewJoin(j2, scans[3])
		j3.Ann = annJoin3
		return plan.NewDisplay(j3)
	}

	client := [4]plan.Annotation{plan.AnnClient, plan.AnnClient, plan.AnnClient, plan.AnnClient}
	primary := [4]plan.Annotation{plan.AnnPrimary, plan.AnnPrimary, plan.AnnPrimary, plan.AnnPrimary}
	mixed := [4]plan.Annotation{plan.AnnPrimary, plan.AnnPrimary, plan.AnnClient, plan.AnnPrimary}

	for _, ex := range []struct {
		title string
		root  *plan.Node
	}{
		{"(a) Data-Shipping", build(plan.AnnConsumer, plan.AnnConsumer, plan.AnnConsumer, client)},
		{"(b) Query-Shipping", build(plan.AnnInner, plan.AnnInner, plan.AnnOuter, primary)},
		{"(c) Hybrid-Shipping", build(plan.AnnInner, plan.AnnConsumer, plan.AnnOuter, mixed)},
	} {
		b, err := plan.Bind(ex.root, cat, catalog.Client)
		if err != nil {
			panic(err)
		}
		fmt.Println(ex.title)
		fmt.Println(plan.FormatBound(ex.root, b))
	}
}
