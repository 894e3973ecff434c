// Package opt implements the paper's randomized two-phase query optimizer
// (§3.1): iterative improvement (II) followed by simulated annealing (SA),
// after Ioannidis and Kang (SIGMOD 1990). The optimizer performs join
// ordering and site selection simultaneously, explores the full
// hybrid-shipping search space, and can be constrained to produce pure
// data-shipping or query-shipping plans by enabling, disabling, or
// restricting moves exactly as described in §3.1.1.
//
// It also provides the building blocks for the §5 study of pre-compiled
// plans: site selection over a fixed join order (the runtime half of 2-step
// optimization) and optimization against an "assumed" catalog (the compile
// time half).
//
// The II starts run concurrently on a worker pool bounded by GOMAXPROCS;
// every start and the SA chain draw from their own rand.Rand derived
// deterministically from Options.Seed, so a seeded optimization returns the
// identical plan and estimate for any GOMAXPROCS. Optimize and OptimizeFrom
// are safe for concurrent use on one Optimizer.
package opt

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"hybridship/internal/catalog"
	"hybridship/internal/cost"
	"hybridship/internal/plan"
)

// Options configures one optimizer instance.
type Options struct {
	Policy plan.Policy
	Metric cost.Metric
	Seed   int64

	// Commutativity enables the A⋈B → B⋈A move. The paper's §3.1.1 move
	// list contains only the four associativity/exchange moves; IK90's move
	// set includes commutativity, and the build side matters for hybrid
	// hash joins with asymmetric inputs, so it defaults to on.
	Commutativity bool

	// FixedJoinOrder restricts the search to site-annotation moves only
	// (moves 5-7). This is the runtime phase of 2-step optimization (§5).
	FixedJoinOrder bool

	// LeftDeepOnly restricts the search to left-deep join trees (§5.2's
	// "deep" plans: minimal intermediate results, no independent
	// parallelism). Join-order exploration then uses adjacent-operand swaps
	// and bottom-join commutes, which stay inside the left-deep space.
	LeftDeepOnly bool
}

// The II/SA settings of IK90 (§3.1.1 note 6).
const (
	iiStarts       = 10   // random starts for iterative improvement
	iiMaxFailures  = 64   // consecutive non-improving tries = local minimum
	saTempFactor   = 0.1  // T0 = saTempFactor * cost(best II plan)
	saTempReduce   = 0.95 // temperature decay per stage
	saInnerFactor  = 16   // moves per stage = saInnerFactor * #joins
	saFrozenStages = 4    // stages without improvement before freezing
)

// DefaultOptions returns the options used in the study.
func DefaultOptions(policy plan.Policy, metric cost.Metric, seed int64) Options {
	return Options{Policy: policy, Metric: metric, Seed: seed, Commutativity: true}
}

// Optimizer searches for a good plan for one query against one catalog.
// Its option fields are never mutated after New: restricted searches (e.g.
// OptimizeFrom's fixed join order) pass a copied Options value down, so
// concurrent searches on one receiver cannot observe each other's state.
type Optimizer struct {
	model *cost.Model
	opts  Options
	bits  relBits // the query's relation bits by catalog ID

	// rng backs the public RandomPlan entry point only; the searches in
	// Optimize/OptimizeFrom use per-phase derived streams instead. Guarded
	// by mu so RandomPlan stays usable alongside concurrent searches.
	mu  sync.Mutex
	rng *rand.Rand
}

// New creates an optimizer. The model carries the catalog, query and cost
// parameters.
func New(model *cost.Model, opts Options) *Optimizer {
	return &Optimizer{model: model, opts: opts, bits: newRelBits(model.Query, model.Catalog),
		rng: rand.New(rand.NewSource(opts.Seed))}
}

// Result is an optimized plan with its predicted metrics.
type Result struct {
	Plan     *plan.Node
	Binding  plan.Binding
	Estimate cost.Estimate
}

// evaluate binds and estimates a plan; ok is false for ill-formed plans.
func (o *Optimizer) evaluate(root *plan.Node) (plan.Binding, cost.Estimate, bool) {
	b, err := plan.Bind(root, o.model.Catalog, catalog.Client)
	if err != nil {
		return nil, cost.Estimate{}, false
	}
	return b, o.model.Estimate(root, b), true
}

// finish binds the plan a search returned and estimates it in full with
// the search's own binder and estimator: the search itself computed only
// its metric. The metric's value is the same bits the search saw.
func (o *Optimizer) finish(st *searchState, r searchResult) (Result, error) {
	sites, err := st.binder.Bind(r.plan, o.model.Catalog, catalog.Client)
	if err == plan.ErrUnbindable {
		err = st.binder.Err()
	}
	if err != nil {
		return Result{}, fmt.Errorf("opt: best plan failed to rebind: %w", err)
	}
	b := plan.Binding(slices.Clone(sites))
	return Result{Plan: r.plan, Binding: b, Estimate: st.estimator.Estimate(r.plan, b)}, nil
}

// Optimize runs two-phase optimization (II then SA) and returns the best
// plan found. The iiStarts random descents run concurrently on a worker
// pool bounded by GOMAXPROCS; each start draws from its own rand.Rand
// derived deterministically from Options.Seed and the start index, and the
// winner is chosen by (value, start index), so the result is identical
// whatever the worker count or scheduling.
func (o *Optimizer) Optimize() (Result, error) {
	// Validate up front: each worker's estimator reads the query's
	// relation masks, which only a valid query has.
	if err := o.model.Query.Validate(); err != nil {
		return Result{}, err
	}
	type iiOut struct {
		res searchResult
		err error
		ok  bool
	}
	outs := make([]iiOut, iiStarts)
	workers := min(runtime.GOMAXPROCS(0), iiStarts)
	states := make([]*searchState, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One searchState per worker: the memo and buffers are reused
			// across the starts this worker happens to pick up, which never
			// affects the (deterministic) per-start results.
			st := newSearch(o, o.opts, nil)
			states[w] = st
			for {
				i := int(next.Add(1) - 1)
				if i >= iiStarts {
					return
				}
				st.rng = rand.New(rand.NewSource(deriveSeed(o.opts.Seed, seedPhaseII, int64(i))))
				root, err := o.randomTree(st.rng, &st.binder)
				if err != nil {
					outs[i] = iiOut{err: err}
					continue
				}
				st.reset(root)
				st.descend()
				outs[i] = iiOut{res: st.result(), ok: true}
			}
		}()
	}
	wg.Wait()

	best, found := searchResult{}, false
	for _, out := range outs { // ascending start index breaks value ties
		if out.ok && (!found || out.res.val < best.val) {
			best, found = out.res, true
		}
	}
	if !found {
		for _, out := range outs {
			if out.err != nil {
				return Result{}, out.err
			}
		}
		return Result{}, fmt.Errorf("opt: no iterative-improvement start succeeded")
	}

	// The annealing reuses a worker's state, memo included: a memo hit
	// returns the bits a miss computes, so what the descents left in it
	// changes the speed, never the result.
	st := states[0]
	st.rng = rand.New(rand.NewSource(deriveSeed(o.opts.Seed, seedPhaseSA)))
	st.reset(best.plan)
	return o.finish(st, st.anneal())
}

// OptimizeFrom runs site-selection-only simulated annealing starting from
// the given plan, keeping its join order (the runtime phase of 2-step
// optimization). The plan's annotations are kept as the starting state.
// The join-order restriction travels in a copied Options value — the
// shared receiver is never mutated.
func (o *Optimizer) OptimizeFrom(root *plan.Node) (Result, error) {
	if err := o.model.Query.Validate(); err != nil {
		return Result{}, err
	}
	if !plan.WellFormed(root, o.model.Catalog, catalog.Client) {
		return Result{}, fmt.Errorf("opt: starting plan is ill-formed")
	}
	opts := o.opts
	opts.FixedJoinOrder = true
	st := newSearch(o, opts, rand.New(rand.NewSource(deriveSeed(o.opts.Seed, seedPhaseFrom))))
	st.reset(root)
	return o.finish(st, st.anneal())
}

// RandomPlan draws a random, well-formed plan from the policy's search
// space, avoiding Cartesian products.
func (o *Optimizer) RandomPlan() (Result, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.randomPlan(o.rng)
}

// randomPlan is RandomPlan over an explicit random stream.
func (o *Optimizer) randomPlan(rng *rand.Rand) (Result, error) {
	var bd plan.Binder
	root, err := o.randomTree(rng, &bd)
	if err != nil {
		return Result{}, err
	}
	b, e, _ := o.evaluate(root)
	return Result{Plan: root, Binding: b, Estimate: e}, nil
}

// randomTree draws the random plan randomPlan returns, checking each
// attempt's well-formedness with bd, so concurrent II starts can each draw
// their own without sharing state.
func (o *Optimizer) randomTree(rng *rand.Rand, bd *plan.Binder) (*plan.Node, error) {
	q := o.model.Query
	if err := q.Validate(); err != nil {
		return nil, err
	}
	for attempt := 0; attempt < 100; attempt++ {
		tree, err := o.randomJoinTree(rng)
		if err != nil {
			return nil, err
		}
		if q.GroupBy > 0 {
			tree = plan.NewAgg(tree)
		}
		root := plan.NewDisplay(tree)
		o.randomizeAnnotations(rng, root)
		if _, err := bd.Bind(root, o.model.Catalog, catalog.Client); err == nil {
			return root, nil
		}
	}
	return nil, fmt.Errorf("opt: could not generate a well-formed plan after 100 attempts")
}

// randomJoinTree builds a random join tree over the query's relations by
// repeatedly joining two connected components (or, in left-deep mode, by
// extending a single chain with one connected relation at a time).
func (o *Optimizer) randomJoinTree(rng *rand.Rand) (*plan.Node, error) {
	if o.opts.LeftDeepOnly {
		return o.randomLeftDeepTree(rng)
	}
	q := o.model.Query
	type comp struct {
		node *plan.Node
		rels uint64
	}
	var comps []comp
	for i := range q.Relations {
		comps = append(comps, comp{node: o.leaf(i), rels: 1 << uint(i)})
	}
	for len(comps) > 1 {
		// Collect joinable pairs.
		type pair struct{ i, j int }
		var pairs []pair
		for i := 0; i < len(comps); i++ {
			for j := i + 1; j < len(comps); j++ {
				if q.Connected(comps[i].rels, comps[j].rels) {
					pairs = append(pairs, pair{i, j})
				}
			}
		}
		if len(pairs) == 0 {
			return nil, fmt.Errorf("opt: query join graph is disconnected")
		}
		pk := pairs[rng.Intn(len(pairs))]
		i, j := pk.i, pk.j
		if rng.Intn(2) == 0 {
			i, j = j, i
		}
		joined := comp{
			node: plan.NewJoin(comps[i].node, comps[j].node),
			rels: comps[i].rels | comps[j].rels,
		}
		// Remove the two inputs (higher index first) and append the join.
		hi, lo := pk.i, pk.j
		if hi < lo {
			hi, lo = lo, hi
		}
		comps = append(comps[:hi], comps[hi+1:]...)
		comps = append(comps[:lo], comps[lo+1:]...)
		comps = append(comps, joined)
	}
	return comps[0].node, nil
}

// leaf is the scan of the query's i-th relation, under its selection if the
// query has one.
func (o *Optimizer) leaf(i int) *plan.Node {
	q := o.model.Query
	r := q.Relations[i]
	var n *plan.Node = plan.NewScan(r)
	if _, hasSel := q.Selects[r]; hasSel {
		n = plan.NewSelect(n, r)
	}
	return n
}

// randomizeAnnotations assigns each operator a random annotation allowed by
// the policy.
func (o *Optimizer) randomizeAnnotations(rng *rand.Rand, root *plan.Node) {
	root.Walk(func(n *plan.Node) {
		anns := plan.AllowedAnnotations(n.Kind, o.opts.Policy)
		n.Ann = anns[rng.Intn(len(anns))]
	})
}

// randomLeftDeepTree grows a left-deep chain from a random starting
// relation, adding one connected relation as the outer at each step. Each
// step's candidates are ordered by relation name before the seeded draw.
func (o *Optimizer) randomLeftDeepTree(rng *rand.Rand) (*plan.Node, error) {
	q := o.model.Query
	byName := make([]int, len(q.Relations))
	for i := range byName {
		byName[i] = i
	}
	slices.SortFunc(byName, func(a, b int) int { return strings.Compare(q.Relations[a], q.Relations[b]) })

	start := rng.Intn(len(q.Relations))
	tree := o.leaf(start)
	joined := uint64(1) << uint(start)
	var candidates []int
	for added := 1; added < len(q.Relations); added++ {
		candidates = candidates[:0]
		for _, i := range byName {
			if bit := uint64(1) << uint(i); joined&bit == 0 && q.Connected(joined, bit) {
				candidates = append(candidates, i)
			}
		}
		if len(candidates) == 0 {
			return nil, fmt.Errorf("opt: query join graph is disconnected")
		}
		i := candidates[rng.Intn(len(candidates))]
		joined |= 1 << uint(i)
		tree = plan.NewJoin(tree, o.leaf(i))
	}
	return tree, nil
}
