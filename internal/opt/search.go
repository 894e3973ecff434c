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
// and an undo record reverts, so no candidate copies the plan. A step costs
// what its move changed, not the whole plan. Every move and revert adds the
// rows it rewrote, and the children it re-parented, to a dirty set, which
// grows across memo hits until the next miss; the parts of a step read it:
//
//   - the memo key: each node's code (kind and relation), annotation and
//     copy, packed in pre-order into a few words (see memo). An annotation
//     or copy move patches its node's code; a join-order move re-derives
//     Pre, Post, the codes and their positions over the moved join's
//     subtree alone, which holds the same nodes before and after, so it
//     fills the same stretch of both orders (plan.Flat.Reorder);
//   - the binder, plan.Binder.Rebind, which follows each dirty node's
//     chain of annotations to its end, hands a moved site on to the nodes
//     whose annotations refer to it as far as it moves them, and reports
//     the nodes whose site moved;
//   - the estimator, cost.Estimator.Value, which visits the nodes whose
//     row or site changed since it last ran, and the ancestors their
//     change reaches, re-adds the charges if any changed, and computes
//     only what Options.Metric reads;
//   - the move enumeration, which reads the rows in pre-order with the
//     subtree masks the moves keep up to date and keeps each node's moves
//     and their counts summed in pre-order; an accepted join-order move
//     enumerates again the moves of the join, its join child and its
//     parent, and sums the counts again from the parent's position.
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
	mask []uint64 // relations under each node, by node ID
	val  float64  // the metric's value for the accepted plan

	// The candidate moves (candidateMoves of the working plan) are each
	// node's moves in pre-order: those of the node at pre-order position q
	// are nodeMoves[Pre[q]], and off[q] counts the moves before them, up to
	// off[n], the total. From position stale on, off is to be summed again,
	// and staleMoves marks the nodes whose moves are to be enumerated again.
	off        []int32
	stale      int32
	nodeMoves  [][]move // each node's moves, by node ID
	staleMoves []bool   // by node ID

	dirty    idSet // rows edited since the binder last ran
	unpriced idSet // rows edited or sites moved since the estimator last ran

	binder    plan.Binder
	estimator *cost.Estimator
	memo      memo
	keys      keyCoder
	best      []plan.FlatNode // anneal's best rows so far
}

// idSet is a set of node IDs, in the order they were added.
type idSet struct {
	ids []int32
	in  []bool // by node ID
}

// reset empties the set and sizes it for a plan of n nodes.
func (s *idSet) reset(n int) {
	s.ids = s.ids[:0]
	s.in = slices.Grow(s.in[:0], n)[:n]
	clear(s.in)
}

func (s *idSet) add(i int32) {
	if !s.in[i] {
		s.in[i] = true
		s.ids = append(s.ids, i)
	}
}

func (s *idSet) addAll(ids []int32) {
	for _, i := range ids {
		s.add(i)
	}
}

// clear empties the set.
func (s *idSet) clear() {
	for _, i := range s.ids {
		s.in[i] = false
	}
	s.ids = s.ids[:0]
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
	n := len(st.flat.Nodes)
	st.mask = subtreeMasks(&st.flat, st.o.bits, st.mask)
	if st.keys.reset(&st.flat, cat) {
		st.memo.clear()
	}
	st.keys.encode(&st.flat)
	st.dirty.reset(n)
	st.unpriced.reset(n)
	st.off = slices.Grow(st.off[:0], n+1)[:n+1]
	st.off[0], st.stale = 0, 0
	st.nodeMoves = slices.Grow(st.nodeMoves[:0], n)[:n]
	st.staleMoves = slices.Grow(st.staleMoves[:0], n)[:n]
	for i := range st.staleMoves {
		st.staleMoves[i] = true
	}
	v, ok := st.evaluate()
	if !ok {
		panic("opt: search started from an unbindable plan")
	}
	st.val = v
}

// moveCount is the number of candidate moves of the working plan. After a
// join-order move it enumerates again only the moves of the nodes the move
// changed (see accept), and sums the counts again from the first of them.
func (st *searchState) moveCount() int {
	f, n := &st.flat, int32(len(st.flat.Nodes))
	if st.stale < n {
		q, cat, off := st.o.model.Query, st.o.model.Catalog, st.off
		for p := st.stale; p < n; p++ {
			i := f.Pre[p]
			if st.staleMoves[i] {
				st.nodeMoves[i] = nodeMoves(q, &st.opts, cat, f, st.mask, i, st.nodeMoves[i][:0])
				st.staleMoves[i] = false
			}
			off[p+1] = off[p] + int32(len(st.nodeMoves[i]))
		}
		st.stale = n
	}
	return int(st.off[n])
}

// moveAt is candidate move r, in candidateMoves' order. It reads the
// counts moveCount brought up to date, so call that first.
func (st *searchState) moveAt(r int) move {
	off, q := st.off, 0
	for int(off[q+1]) <= r {
		q++
	}
	return st.nodeMoves[st.flat.Pre[q]][r-int(off[q])]
}

// apply applies mv to the working plan, recording its undo in u.
func (st *searchState) apply(mv move, u *undoRec) {
	applyMove(&st.flat, st.mask, mv, st.opts.Policy, st.o.model.Catalog, u)
	st.edited(u)
}

// revert undoes the move u recorded.
func (st *searchState) revert(u *undoRec) {
	u.revert(&st.flat, st.mask)
	st.edited(u)
}

// edited brings the working plan's key and, after a join-order move, its
// traversal orders up to date with the rows the move u recorded has just
// rewritten or restored, and adds those rows to the dirty set. A
// join-order move rearranges its join's subtree and nothing else, so
// Reorder and recode redo only that subtree's stretch of the orders and
// the key.
func (st *searchState) edited(u *undoRec) {
	st.dirty.add(u.n)
	if u.k >= 0 {
		st.dirty.add(u.k)
	}
	for _, c := range u.moved[:u.nMoved] {
		st.dirty.add(c)
	}
	f := &st.flat
	if !u.changedShape {
		st.keys.patch(f, u.n)
		return
	}
	depth := int32(0)
	for p := f.Nodes[u.n].Parent; p >= 0; p = f.Nodes[p].Parent {
		depth++
	}
	lo := f.PrePos[u.n]
	size := f.Reorder(u.n, lo, lo-depth)
	st.keys.recode(f, lo, lo+size)
}

// accept keeps the move u recorded, whose plan has value v. A join-order
// move changes the moves of the join, its join child and its parent (see
// nodeMoves), and the pre-order positions of its subtree; their counts are
// summed again from the parent's position.
func (st *searchState) accept(v float64, u *undoRec) {
	st.val = v
	if !u.changedShape {
		return
	}
	lo := st.flat.PrePos[u.n]
	st.staleMoves[u.n] = true
	if u.k >= 0 {
		st.staleMoves[u.k] = true
	}
	if p := st.flat.Nodes[u.n].Parent; p >= 0 {
		st.staleMoves[p] = true
		lo = st.flat.PrePos[p]
	}
	st.stale = min(st.stale, lo)
}

// evaluate binds and estimates the working plan, memoizing by its key; ok
// is false for ill-formed plans (annotation cycles), which are memoized
// too so the walk doesn't repeatedly re-derive their failure. A memo hit
// returns the bits a miss computes: the value is a function of the plan,
// which the key identifies.
func (st *searchState) evaluate() (float64, bool) {
	h := hashKey(st.keys.key)
	if v, ok, hit := st.memo.get(h, st.keys.key); hit {
		return v, ok
	}
	v, ok := st.compute()
	st.memo.put(h, st.keys.key, v, ok)
	return v, ok
}

// compute binds and estimates the working plan from what changed since
// they last ran: the binder re-resolves from the dirty rows, and the
// estimator recomputes from those and the nodes whose site moved, kept
// across ill-formed candidates until one binds.
func (st *searchState) compute() (float64, bool) {
	f := &st.flat
	// An ill-formed candidate comes back as plan.ErrUnbindable, which
	// costs nothing to return; its description is never needed here.
	sites, err := st.binder.Rebind(f, st.o.model.Catalog, catalog.Client, st.dirty.ids)
	st.unpriced.addAll(st.dirty.ids)
	st.unpriced.addAll(st.binder.Changed())
	st.dirty.clear()
	if err != nil {
		return 0, false
	}
	v := st.estimator.Value(f, sites, st.unpriced.ids, st.opts.Metric)
	st.unpriced.clear()
	return v, true
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
		n := st.moveCount()
		if n == 0 {
			return // no legal moves at all (e.g. DS 2-way join)
		}
		st.apply(st.moveAt(st.rng.Intn(n)), &u)
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
			n := st.moveCount()
			if n == 0 {
				break stages
			}
			st.apply(st.moveAt(st.rng.Intn(n)), &u)
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
