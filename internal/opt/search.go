package opt

import (
	"math"
	"math/rand"

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

// memoMax bounds the per-search estimate memo; see searchState.
const memoMax = 1 << 12

type memoEntry struct {
	est cost.Estimate
	ok  bool
}

// searchState is the allocation-lean working state of one search thread.
// Instead of deep-cloning the plan for every candidate move (the seed
// implementation's inner loop), it applies moves to a single working tree
// in place and reverts rejected ones from an undo record. It keeps:
//
//   - a pre-order node index with each subtree's relation mask, rebuilt
//     only when an accepted move changes the tree's shape (annotation moves
//     leave it valid);
//   - the cached candidateMoves enumeration, which is a pure function of
//     the shape and is likewise invalidated only by join-order moves;
//   - a reusable plan.Binder, which resolves sites into a pre-order slice,
//     and a cost.Estimator over the optimizer's model, which consumes it,
//     so evaluating a candidate allocates nothing;
//   - a (shape, annotations) → estimate memo keyed by plan.AppendKey, so
//     states the walk revisits (annotation toggles do constantly) are not
//     re-bound and re-estimated.
//
// The working tree's scans and selects carry their relation's catalog ID
// (plan.Node.RelID), resolved once in reset: no move creates or renames a
// node, so the IDs stay valid for the whole search, and the binder, the
// estimator, the shape index and the copy moves read them instead of
// looking names up.
//
// The memo holds at most memoMax entries and is cleared wholesale when
// full. A 10-way search evaluates about 20k candidates and would otherwise
// grow the memo to about 18k entries, for a hit rate of 8-19%: the states
// the walk revisits, it mostly revisits within a few thousand steps.
// Measured over 10-way chains on 1, 2, 5 and 10 servers (response time,
// three seeds each), going from 1<<15 to 1<<12 entries moves the hit rate
// from 13.4% to 12.0% under HY, 8.5% to 8.1% under DS and 19.2% to 17.7%
// under QS, and halves the bytes an optimization allocates, most of which
// were the memo's key strings and buckets. 2-way searches never hold more
// than 24 entries, so the bound never binds there. Hits and misses return
// the same bits, so the bound changes speed, never a plan.
//
// A searchState must not be shared between goroutines; the worker pool in
// Optimize gives each worker its own.
type searchState struct {
	o    *Optimizer
	opts Options
	rng  *rand.Rand

	root       *plan.Node
	est        cost.Estimate
	nodes      []*plan.Node
	shape      shapeIndex
	moves      []move
	movesValid bool

	binder    plan.Binder
	estimator *cost.Estimator
	memo      map[string]memoEntry
	keyBuf    []byte
}

func newSearch(o *Optimizer, opts Options, rng *rand.Rand) *searchState {
	return &searchState{o: o, opts: opts, rng: rng, estimator: cost.NewEstimator(o.model),
		memo: make(map[string]memoEntry)}
}

// reset points the search at a mutable working tree with a known estimate.
// The tree is owned by the search from here on: moves mutate it in place,
// and its relation IDs are resolved against the model's catalog.
func (st *searchState) reset(root *plan.Node, est cost.Estimate) {
	st.root = root
	st.est = est
	resolveRelIDs(root, st.o.model.Catalog)
	st.reindex()
}

// reindex rebuilds the node index and subtree masks of the working tree
// and drops the move cache.
func (st *searchState) reindex() {
	st.nodes = indexNodes(st.root, st.nodes)
	st.shape.build(&st.o.bits, st.nodes)
	st.movesValid = false
}

func (st *searchState) ensureMoves() []move {
	if !st.movesValid {
		st.moves = candidateMoves(st.o.model.Query, st.opts, st.o.model.Catalog, st.nodes, &st.shape, st.moves)
		st.movesValid = true
	}
	return st.moves
}

// accept keeps the last applied move: it records the new estimate and, for
// shape-changing moves, rebuilds the node index and drops the move cache.
func (st *searchState) accept(e cost.Estimate, changedShape bool) {
	st.est = e
	if changedShape {
		st.reindex()
	}
}

// evaluate binds and estimates the working tree, memoizing by plan key; ok
// is false for ill-formed plans (annotation cycles), which are memoized
// too so the walk doesn't repeatedly re-derive their failure.
func (st *searchState) evaluate() (cost.Estimate, bool) {
	st.keyBuf = plan.AppendKey(st.keyBuf[:0], st.root)
	if e, hit := st.memo[string(st.keyBuf)]; hit {
		return e.est, e.ok
	}
	var entry memoEntry
	// An ill-formed candidate comes back as plan.ErrUnbindable, which
	// costs nothing to return; its description is never needed here.
	if sites, err := st.binder.Bind(st.root, st.o.model.Catalog, catalog.Client); err == nil {
		entry = memoEntry{est: st.estimator.Estimate(st.root, sites), ok: true}
	}
	if len(st.memo) >= memoMax {
		clear(st.memo)
	}
	st.memo[string(st.keyBuf)] = entry
	return entry.est, entry.ok
}

// value is the metric being minimized.
func (st *searchState) value(e cost.Estimate) float64 { return e.Value(st.opts.Metric) }

// snapshot clones the working tree so the caller can keep mutating it. The
// Binding is left nil; Optimizer.finish rebinds the winning snapshot once.
func (st *searchState) snapshot() Result {
	return Result{Plan: st.root.Clone(), Estimate: st.est}
}

// descend runs one iterative-improvement descent: random downhill moves
// until IIMaxFailures consecutive tries fail to improve. The working tree
// ends at the local minimum.
func (st *searchState) descend() {
	var u undoRec
	failures := 0
	for failures < st.opts.IIMaxFailures {
		moves := st.ensureMoves()
		if len(moves) == 0 {
			return // no legal moves at all (e.g. DS 2-way join)
		}
		mv := moves[st.rng.Intn(len(moves))]
		changedShape := applyMove(st.nodes, mv, st.opts.Policy, st.o.model.Catalog, &u)
		if e, ok := st.evaluate(); ok && st.value(e) < st.value(st.est) {
			st.accept(e, changedShape)
			failures = 0
		} else {
			u.revert()
			failures++
		}
	}
}

// anneal refines the working tree with the IK90 annealing schedule and
// returns the best state seen as a snapshot.
func (st *searchState) anneal() Result {
	best := st.snapshot()
	joins := 0
	for _, n := range st.nodes {
		if n.Kind == plan.KindJoin {
			joins++
		}
	}
	if joins == 0 {
		return best
	}
	temp := st.opts.SATempFactor * st.value(st.est)
	if temp <= 0 {
		temp = 1e-9
	}
	floor := 1e-4 * st.value(st.est)
	if floor <= 0 {
		floor = 1e-12
	}
	var u undoRec
	stagesSinceImprove := 0
	for stagesSinceImprove < st.opts.SAFrozenStages || temp > floor {
		improved := false
		inner := st.opts.SAInnerFactor * joins
		for i := 0; i < inner; i++ {
			moves := st.ensureMoves()
			if len(moves) == 0 {
				return best
			}
			mv := moves[st.rng.Intn(len(moves))]
			changedShape := applyMove(st.nodes, mv, st.opts.Policy, st.o.model.Catalog, &u)
			e, ok := st.evaluate()
			if !ok {
				u.revert()
				continue
			}
			delta := st.value(e) - st.value(st.est)
			if delta <= 0 || st.rng.Float64() < math.Exp(-delta/temp) {
				st.accept(e, changedShape)
				if st.value(e) < st.value(best.Estimate) {
					best = st.snapshot()
					improved = true
				}
			} else {
				u.revert()
			}
		}
		if improved {
			stagesSinceImprove = 0
		} else {
			stagesSinceImprove++
		}
		temp *= st.opts.SATempReduce
	}
	return best
}
