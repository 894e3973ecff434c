package exec

import (
	"fmt"
	"math"

	"hybridship/internal/catalog"
	"hybridship/internal/plan"
)

// BoundPlan is a plan ready to execute: flattened and checked once, when it
// is bound. Node i is the i-th node of the plan in pre-order (the order of
// plan.Node.Walk and of a fresh plan.Flat.Reset); every per-node slice is
// indexed by that ID. A BoundPlan is read-only once built, so one value
// serves any number of queries, concurrent ones included.
type BoundPlan struct {
	flat  plan.Flat    // the rows, with relation IDs and the tree nodes for names
	sites plan.Binding // node i's compile-time site
	facts []nodeFacts
}

// nodeFacts is what the engine knows about a node before running it.
type nodeFacts struct {
	mask  uint64  // the base relations scanned in the subtree (Query.RelMask)
	card  float64 // estimated output cardinality
	bytes int     // output tuple width
	pages int     // estimated output pages
	// A scan: the client caches every page of the relation, so a
	// client-bound scan faults nothing in.
	cached bool
}

// bindPlan flattens root and checks sites against it: one site per node,
// each the client or a server of the catalog, and every scan of a relation
// the catalog holds, bound to the client or to a site holding a copy (data
// can only be read where it lives). cfg must have passed validate.
func bindPlan(cfg *Config, root *plan.Node, sites plan.Binding) (*BoundPlan, error) {
	cat := cfg.Catalog
	bp := &BoundPlan{sites: sites}
	if err := bp.flat.Reset(root, cat); err != nil {
		return nil, err
	}
	nodes := bp.flat.Nodes
	if len(sites) < len(nodes) {
		return nil, fmt.Errorf("exec: node %v missing from binding", nodes[len(sites)].Kind)
	}
	if len(sites) > len(nodes) {
		return nil, fmt.Errorf("exec: binding has %d sites for a plan of %d nodes", len(sites), len(nodes))
	}
	for i := range nodes {
		nd, site := &nodes[i], sites[i]
		if site != catalog.Client && (site < 0 || int(site) >= cat.NumServers) {
			return nil, fmt.Errorf("exec: node %v bound to nonexistent site %d", nd.Kind, site)
		}
		if nd.Kind != plan.KindScan {
			continue
		}
		rel, r := bp.flat.Src[i].Table, cat.ByID(nd.Rel)
		if r == nil {
			return nil, fmt.Errorf("exec: scan of unknown relation %q", rel)
		}
		if site != catalog.Client && !r.HasCopy(site) {
			return nil, fmt.Errorf("exec: scan of %s bound to site %d, which holds no copy", rel, site)
		}
	}
	bp.estimate(cfg)
	return bp, nil
}

// bind binds root's annotations to sites (plan.Bind) and checks the
// result as bindPlan does.
func bind(cfg *Config, root *plan.Node) (*BoundPlan, error) {
	sites, err := plan.Bind(root, cfg.Catalog, catalog.Client)
	if err != nil {
		return nil, err
	}
	return bindPlan(cfg, root, sites)
}

// estimate fills bp.facts in one post-order pass. Cardinalities and tuple
// widths come from catalog statistics, the same way the optimizer's cost
// model derives them; the engine uses the estimates only to size join
// memory allocations, and actual cardinalities are measured by executing
// the plan.
func (bp *BoundPlan) estimate(cfg *Config) {
	q, cat := cfg.Query, cfg.Catalog
	bp.facts = make([]nodeFacts, len(bp.flat.Nodes))
	for _, i := range bp.flat.Post {
		nd, src, f := &bp.flat.Nodes[i], bp.flat.Src[i], &bp.facts[i]
		switch nd.Kind {
		case plan.KindScan:
			r := cat.ByID(nd.Rel)
			f.mask, f.card, f.bytes = q.RelMask(src.Table), float64(r.Tuples), r.TupleBytes
			f.cached = cat.CachedPages(src.Table) >= r.Pages(cfg.Params.PageSize)
		case plan.KindSelect:
			*f = bp.facts[nd.Left]
			f.card *= q.SelectSelectivity(src.Rel)
		case plan.KindJoin:
			l, r := &bp.facts[nd.Left], &bp.facts[nd.Right]
			f.mask, f.bytes = l.mask|r.mask, q.ResultTupleBytes
			f.card = l.card * r.card * q.JoinSelectivity(l.mask, r.mask)
		case plan.KindAgg:
			*f = bp.facts[nd.Left]
			if g := float64(q.GroupBy); g > 0 && g < f.card {
				f.card = g
			}
		default:
			continue // the display's output is the result itself
		}
		f.pages = 0
		if f.card > 0 {
			f.pages = int(math.Ceil(f.card / float64(tuplesPerPage(cfg.Params.PageSize, f.bytes))))
		}
	}
}
