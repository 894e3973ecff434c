package opt

import (
	"math"
	"math/rand"
	"slices"

	"hybridship/internal/catalog"
	"hybridship/internal/cost"
	"hybridship/internal/plan"
	"hybridship/internal/seedmix"
)

// Seed-derivation phase tags: every II start, the SA chain, and
// OptimizeFrom's chain draw from independent deterministic streams.
const (
	seedPhaseII int64 = iota + 1
	seedPhaseSA
	seedPhaseFrom
)

// deriveSeed mixes the user seed with phase/start coordinates, so concurrent
// searches get decorrelated streams whose contents do not depend on
// scheduling or worker count. The mixing itself lives in internal/seedmix,
// shared with the execution engine's load generators.
func deriveSeed(base int64, parts ...int64) int64 {
	return seedmix.Derive(base, parts...)
}

// searchState is the allocation-lean working state of one search thread:
// one flat plan (plan.Flat) per start, which the §3.1.1 moves edit in place
// and an undo record reverts, so no candidate copies the plan. The same
// rows serve every part of a step:
//
//   - the memo key: each node's code (kind and relation), annotation and
//     copy, packed in pre-order into a few words (see memo);
//   - the binder, plan.Binder.BindFlat, which re-derives every site;
//   - the estimator, cost.Estimator.Value, which recomputes only the nodes
//     whose site, children or children's facts changed since the plan it
//     last evaluated, and computes only what Options.Metric reads;
//   - the move enumeration, which reads the rows in pre-order with the
//     subtree masks the moves keep up to date, and which is redone only
//     when an accepted move changes the tree's shape.
//
// Relation IDs are resolved once, when reset flattens the start plan: no
// move creates or renames a node, so they stay valid for the whole search.
// The search tracks only the metric's value; Optimizer.finish estimates
// the returned plan in full once.
//
// A searchState must not be shared between goroutines; the worker pool in
// Optimize gives each worker its own.
type searchState struct {
	o    *Optimizer
	opts Options
	rng  *rand.Rand

	flat plan.Flat
	// ordered is whether flat.Pre, flat.Post and the key coder's key and
	// positions describe the working plan. A shape-changing move clears
	// it, setting them aside in before, which its revert swaps back; an
	// annotation or copy move patches its node's code in the key.
	ordered    bool
	before     savedOrder
	mask       []uint64 // relations under each node, by node ID
	val        float64  // the metric's value for the accepted plan
	moves      []move   // every node's moves, in pre-order
	movesValid bool
	nodeMoves  [][]move // each node's moves, by node ID
	staleMoves []bool   // by node ID: nodeMoves must be enumerated again

	binder    plan.Binder
	estimator *cost.Estimator
	memo      memo
	keys      keyCoder
	best      []plan.FlatNode // anneal's best rows so far
}

func newSearch(o *Optimizer, opts Options, rng *rand.Rand) *searchState {
	return &searchState{o: o, opts: opts, rng: rng, estimator: cost.NewEstimator(o.model)}
}

// reset points the search at a copy of the well-formed plan root and
// evaluates it. The tree itself is never modified.
func (st *searchState) reset(root *plan.Node) {
	cat := st.o.model.Catalog
	if err := st.flat.Reset(root, cat); err != nil {
		panic("opt: " + err.Error())
	}
	st.mask = subtreeMasks(&st.flat, st.o.bits, st.mask)
	if st.keys.reset(&st.flat, cat) {
		st.memo.clear()
	}
	st.keys.encode(&st.flat)
	st.movesValid, st.ordered = false, true
	for i := range st.staleMoves {
		st.staleMoves[i] = true
	}
	v, ok := st.evaluate()
	if !ok {
		panic("opt: search started from an unbindable plan")
	}
	st.val = v
}

// ensureMoves returns candidateMoves of the working plan. It keeps each
// node's moves and, after a join-order move, enumerates again only the
// nodes whose moves it changed (see nodeMoves).
func (st *searchState) ensureMoves() []move {
	if st.movesValid {
		return st.moves
	}
	f, q, cat := &st.flat, st.o.model.Query, st.o.model.Catalog
	if len(st.nodeMoves) != len(f.Nodes) {
		st.nodeMoves = slices.Grow(st.nodeMoves[:0], len(f.Nodes))[:len(f.Nodes)]
		st.staleMoves = slices.Grow(st.staleMoves[:0], len(f.Nodes))[:len(f.Nodes)]
		for i := range st.staleMoves {
			st.staleMoves[i] = true
		}
	}
	moves := st.moves[:0]
	for _, i := range f.Pre {
		if st.staleMoves[i] {
			st.nodeMoves[i] = nodeMoves(q, &st.opts, cat, f, st.mask, i, st.nodeMoves[i][:0])
			st.staleMoves[i] = false
		}
		moves = append(moves, st.nodeMoves[i]...)
	}
	st.moves, st.movesValid = moves, true
	return moves
}

// savedOrder is the traversal orders and key of a plan, kept across a
// shape-changing move so that reverting it costs no new walk. It swaps
// buffers with the working ones rather than copying them.
type savedOrder struct {
	valid     bool
	pre, post []int32
	pos       []int32
	key       []uint64
}

// swap exchanges the saved buffers with the search's working ones.
func (b *savedOrder) swap(st *searchState) {
	f, k := &st.flat, &st.keys
	f.Pre, b.pre = b.pre, f.Pre
	f.Post, b.post = b.post, f.Post
	k.pos, b.pos = b.pos, k.pos
	k.key, b.key = b.key, k.key
}

// apply applies mv to the working plan, recording its undo in u.
func (st *searchState) apply(mv move, u *undoRec) {
	shape := mv.kind.reshapes()
	if b := &st.before; shape {
		b.valid = st.ordered
		if b.valid {
			b.swap(st)
		}
		st.ordered = false
	}
	applyMove(&st.flat, st.mask, mv, st.opts.Policy, st.o.model.Catalog, u)
	if !shape && st.ordered {
		st.keys.patch(&st.flat, mv.node)
	}
}

// revert undoes the move u recorded.
func (st *searchState) revert(u *undoRec) {
	u.revert(&st.flat, st.mask)
	switch b := &st.before; {
	case !u.changedShape:
		if st.ordered {
			st.keys.patch(&st.flat, u.n)
		}
	case b.valid:
		b.swap(st)
		b.valid, st.ordered = false, true
	}
}

// accept keeps the move u recorded, whose plan has value v; a
// shape-changing move drops the moves of the nodes it touched. evaluate
// left flat.Pre in the accepted plan's order, which is what the next
// enumeration reads.
func (st *searchState) accept(v float64, u *undoRec) {
	st.val = v
	if !u.changedShape {
		return
	}
	st.movesValid = false
	st.staleMoves[u.n] = true
	if u.k >= 0 {
		st.staleMoves[u.k] = true
	}
	if p := st.flat.Nodes[u.n].Parent; p >= 0 {
		st.staleMoves[p] = true
	}
}

// evaluate binds and estimates the working plan, memoizing by its key; ok
// is false for ill-formed plans (annotation cycles), which are memoized
// too so the walk doesn't repeatedly re-derive their failure. A memo hit
// returns the bits a miss computes: the value is a function of the plan,
// which the key identifies.
func (st *searchState) evaluate() (float64, bool) {
	f := &st.flat
	if !st.ordered {
		f.Order()
		st.keys.encode(f)
		st.ordered = true
	}
	h := hashKey(st.keys.key)
	if v, ok, hit := st.memo.get(h, st.keys.key); hit {
		return v, ok
	}
	var v float64
	// An ill-formed candidate comes back as plan.ErrUnbindable, which
	// costs nothing to return; its description is never needed here.
	sites, err := st.binder.BindFlat(f, st.o.model.Catalog, catalog.Client)
	if err == nil {
		v = st.estimator.Value(f, sites, st.opts.Metric)
	}
	st.memo.put(h, st.keys.key, v, err == nil)
	return v, err == nil
}

// result is the working plan as a fresh tree with its value.
func (st *searchState) result() searchResult {
	return searchResult{plan: st.flat.Tree(), val: st.val}
}

// searchResult is a plan a search returns, with its metric's value.
type searchResult struct {
	plan *plan.Node
	val  float64
}

// descend runs one iterative-improvement descent: random downhill moves
// until iiMaxFailures consecutive tries fail to improve. The working plan
// ends at the local minimum.
func (st *searchState) descend() {
	var u undoRec
	failures := 0
	for failures < iiMaxFailures {
		moves := st.ensureMoves()
		if len(moves) == 0 {
			return // no legal moves at all (e.g. DS 2-way join)
		}
		st.apply(moves[st.rng.Intn(len(moves))], &u)
		if v, ok := st.evaluate(); ok && v < st.val {
			st.accept(v, &u)
			failures = 0
		} else {
			st.revert(&u)
			failures++
		}
	}
}

// anneal refines the working plan with the IK90 annealing schedule and
// returns the best state seen.
func (st *searchState) anneal() searchResult {
	st.best = append(st.best[:0], st.flat.Nodes...)
	bestVal := st.val
	joins := 0
	for _, n := range st.flat.Nodes {
		if n.Kind == plan.KindJoin {
			joins++
		}
	}
	if joins == 0 {
		return st.result()
	}
	temp := saTempFactor * st.val
	if temp <= 0 {
		temp = 1e-9
	}
	floor := 1e-4 * st.val
	if floor <= 0 {
		floor = 1e-12
	}
	var u undoRec
	stagesSinceImprove := 0
stages:
	for stagesSinceImprove < saFrozenStages || temp > floor {
		improved := false
		inner := saInnerFactor * joins
		for i := 0; i < inner; i++ {
			moves := st.ensureMoves()
			if len(moves) == 0 {
				break stages
			}
			st.apply(moves[st.rng.Intn(len(moves))], &u)
			v, ok := st.evaluate()
			if !ok {
				st.revert(&u)
				continue
			}
			delta := v - st.val
			if delta <= 0 || st.rng.Float64() < math.Exp(-delta/temp) {
				st.accept(v, &u)
				if v < bestVal {
					st.best = append(st.best[:0], st.flat.Nodes...)
					bestVal = v
					improved = true
				}
			} else {
				st.revert(&u)
			}
		}
		if improved {
			stagesSinceImprove = 0
		} else {
			stagesSinceImprove++
		}
		temp *= saTempReduce
	}
	// The search ends here, so only the rows and the value are brought
	// back to the best plan's; result reads no more.
	copy(st.flat.Nodes, st.best)
	st.val = bestVal
	return st.result()
}
