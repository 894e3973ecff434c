package opt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/cost"
	"hybridship/internal/plan"
)

// deltaEnv is one search environment of the differential walks.
type deltaEnv struct {
	ways, servers int
	rf            int     // replication factor (copy moves need 2 or more)
	cached        float64 // cached fraction of every relation
	selects       bool    // a selection on two of the relations
	agg           bool    // an aggregate above the joins
	maxAlloc      bool
	pol           plan.Policy
	metric        cost.Metric
	leftDeep      bool
}

func (d deltaEnv) String() string {
	return fmt.Sprintf("%dway/%dsrv/rf%d/c%v/sel%v/agg%v/max%v/%v/%v/ld%v", d.ways, d.servers, d.rf,
		d.cached, d.selects, d.agg, d.maxAlloc, d.pol, d.metric, d.leftDeep)
}

// search builds the environment and a search positioned at a random plan.
func (d deltaEnv) search(tb testing.TB, seed int64) *searchState {
	tb.Helper()
	cat, q := chainEnv(d.ways, d.servers, d.cached)
	if d.rf > 1 {
		if err := cat.ReplicateAll(d.rf, seed); err != nil {
			tb.Fatal(err)
		}
	}
	if d.selects {
		q.Selects = map[string]float64{"R0": 0.2, q.Relations[d.ways-1]: 0.5}
	}
	if d.agg {
		q.GroupBy = 50
	}
	p := cost.DefaultParams()
	p.MaxAlloc = d.maxAlloc
	opts := DefaultOptions(d.pol, d.metric, seed)
	opts.LeftDeepOnly = d.leftDeep
	o := New(&cost.Model{Params: p, Catalog: cat, Query: q}, opts)
	st := newSearch(o, o.opts, rand.New(rand.NewSource(seed)))
	root, err := o.randomTree(st.rng, &st.binder)
	if err != nil {
		tb.Fatal(err)
	}
	st.reset(root)
	return st
}

// freshValue binds and estimates root from scratch, as the API edge does.
func freshValue(st *searchState, root *plan.Node) (float64, bool) {
	m := st.o.model
	b, err := plan.Bind(root, m.Catalog, catalog.Client)
	if err != nil {
		return 0, false
	}
	return m.Estimate(root, b).Value(st.opts.Metric), true
}

// checkFlat compares the search's flat plan with a fresh flattening of the
// tree it describes, node by node in pre-order: kind, annotation, copy,
// relation, parent, subtree mask, and the traversal orders, positions and
// memo key.
func checkFlat(tb testing.TB, st *searchState, where string) {
	tb.Helper()
	f := &st.flat
	var fresh plan.Flat
	if err := fresh.Reset(f.Tree(), st.o.model.Catalog); err != nil {
		tb.Fatalf("%s: %v", where, err)
	}
	freshMask := subtreeMasks(&fresh, st.o.bits, nil)
	// The search's pre-order, found from the links alone.
	var pre []int32
	var walk func(int32)
	walk = func(i int32) {
		pre = append(pre, i)
		if l := f.Nodes[i].Left; l >= 0 {
			walk(l)
		}
		if r := f.Nodes[i].Right; r >= 0 {
			walk(r)
		}
	}
	walk(0)
	if len(pre) != len(fresh.Nodes) || len(pre) != len(f.Nodes) {
		tb.Fatalf("%s: %d nodes reachable of %d, fresh flattening has %d", where, len(pre), len(f.Nodes), len(fresh.Nodes))
	}
	at := make([]int32, len(pre)) // pre-order position by search node ID
	for p, i := range pre {
		at[i] = int32(p)
	}
	for p, i := range pre {
		got, want := f.Nodes[i], fresh.Nodes[p]
		parent := int32(-1)
		if got.Parent >= 0 {
			parent = at[got.Parent]
		}
		if got.Kind != want.Kind || got.Ann != want.Ann || got.Copy != want.Copy || got.Rel != want.Rel ||
			parent != want.Parent {
			tb.Fatalf("%s: node at pre-order %d is %+v (parent at %d), fresh %+v", where, p, got, parent, want)
		}
		if st.mask[i] != freshMask[p] {
			tb.Fatalf("%s: node at pre-order %d has mask %b, fresh %b", where, p, st.mask[i], freshMask[p])
		}
	}
	if !slices.Equal(f.Pre, pre) {
		tb.Fatalf("%s: Pre %v, links give %v", where, f.Pre, pre)
	}
	post, prePos, postPos := slices.Clone(f.Post), slices.Clone(f.PrePos), slices.Clone(f.PostPos)
	f.Order()
	if !slices.Equal(post, f.Post) {
		tb.Fatalf("%s: Post %v, links give %v", where, post, f.Post)
	}
	if !slices.Equal(prePos, f.PrePos) || !slices.Equal(postPos, f.PostPos) {
		tb.Fatalf("%s: positions %v %v, links give %v %v", where, prePos, postPos, f.PrePos, f.PostPos)
	}
	key := slices.Clone(st.keys.key)
	st.keys.encode(f)
	if !slices.Equal(key, st.keys.key) {
		tb.Fatalf("%s: key %x, fresh encoding %x", where, key, st.keys.key)
	}
}

// deltaWalk is walk, counting the candidates the memo answered.
func deltaWalk(tb testing.TB, st *searchState, rng *rand.Rand, steps int, name string) (hits int) {
	tb.Helper()
	return walk(tb, st, rng, steps, name).hits
}

// walkStats counts what a walk met.
type walkStats struct {
	hits int // candidates the memo answered
	// The most memo hits, and unbindable candidates, between two binds and
	// two estimates: the runs the dirty sets had to span.
	hitRun, unbindableRun int
}

// walk takes steps random moves from the search's start, accepting each
// bindable candidate with probability one half; after a revert, it tries
// the same move again with probability one half, which the memo answers,
// so that runs of hits come between two binds. It checks:
//
//   - every candidate's verdict and value, memo hit or miss, against a
//     fresh bind and estimate;
//   - after every bind, the binder's sites and verdict against a fresh
//     BindFlat, and after every estimate, the estimator's sums against a
//     fresh EstimateFlat: the incremental passes redid all that the
//     dirty set reached, across the hits and unbindable candidates since
//     the last pass;
//   - after every accept and revert, the flat plan (checkFlat), the kept
//     move list, and that every row edited since the last bind is in the
//     dirty set, and every row edited since the last estimate in the
//     dirty set or the estimator's pending set.
func walk(tb testing.TB, st *searchState, rng *rand.Rand, steps int, name string) walkStats {
	tb.Helper()
	checkFlat(tb, st, name+" start")
	var (
		stats              walkStats
		u                  undoRec
		hitRun, unbindable int
	)
	retry := move{kind: -1}
	bound := slices.Clone(st.flat.Nodes)  // the rows as of the last bind
	priced := slices.Clone(st.flat.Nodes) // and as of the last estimate
	for step := 0; step < steps; step++ {
		moves := keptMoves(st)
		if len(moves) == 0 {
			return stats
		}
		mv := moves[rng.Intn(len(moves))]
		if retry.kind >= 0 && slices.Contains(moves, retry) {
			mv = retry
		}
		retry.kind = -1
		st.apply(mv, &u)
		where := fmt.Sprintf("%s step %d (%+v)", name, step, mv)

		want, wantOK := freshValue(st, st.flat.Tree())
		_, _, hit := st.memo.get(hashKey(st.keys.key), st.keys.key)
		got, ok := st.evaluate()
		if ok != wantOK || (ok && math.Float64bits(got) != math.Float64bits(want)) {
			tb.Fatalf("%s: memo hit %v gives %v %v, fresh %v %v\n%s", where, hit, got, ok, want, wantOK, st.flat.Tree())
		}
		if hit {
			stats.hits++
			hitRun++
		} else {
			checkPasses(tb, st, ok, where)
			stats.hitRun = max(stats.hitRun, hitRun)
			hitRun = 0
			copy(bound, st.flat.Nodes)
			if ok {
				stats.unbindableRun = max(stats.unbindableRun, unbindable)
				unbindable = 0
				copy(priced, st.flat.Nodes)
			} else {
				unbindable++
			}
		}
		if ok && rng.Intn(2) == 0 {
			st.accept(got, &u)
			where += " accepted"
		} else {
			st.revert(&u)
			where += " reverted"
			if rng.Intn(2) == 0 {
				retry = mv
			}
		}
		checkFlat(tb, st, where)
		checkDirty(tb, st, bound, priced, where)
		m := st.o.model
		if got, want := keptMoves(st), candidateMoves(m.Query, st.opts, m.Catalog, &st.flat, st.mask, nil); !slices.Equal(got, want) {
			tb.Fatalf("%s: kept moves %v, enumerated afresh %v", where, got, want)
		}
	}
	return stats
}

// keptMoves lists the search's candidate moves as moveCount and moveAt
// keep them.
func keptMoves(st *searchState) []move {
	moves := make([]move, st.moveCount())
	for r := range moves {
		moves[r] = st.moveAt(r)
	}
	return moves
}

// checkPasses compares the binder's and, for a bindable plan (ok), the
// estimator's state after a memo miss with fresh ones: the same verdict,
// error text and sites as a fresh BindFlat, and the same sums, bit for
// bit, as a fresh estimate for the search's metric.
func checkPasses(tb testing.TB, st *searchState, ok bool, where string) {
	tb.Helper()
	cat, f := st.o.model.Catalog, &st.flat
	// A rebind with nothing dirty redoes nothing: it reads the state back.
	sites, err := st.binder.Rebind(f, cat, catalog.Client, nil)
	var fresh plan.Binder
	want, wantErr := fresh.BindFlat(f, cat, catalog.Client)
	if (err == nil) != (wantErr == nil) || (err != nil && st.binder.Err().Error() != fresh.Err().Error()) {
		tb.Fatalf("%s: incremental bind gives %v, fresh %v", where, err, wantErr)
	}
	if err == nil && !slices.Equal(sites, want) {
		tb.Fatalf("%s: incremental sites %v, fresh %v", where, sites, want)
	}
	if (err == nil) != ok {
		tb.Fatalf("%s: bind verdict %v, evaluate said %v", where, err, ok)
	}
	if !ok {
		return
	}
	e := cost.NewEstimator(st.o.model)
	e.Value(f, want, nil, st.opts.Metric)
	if got, want := st.estimator.Sums(), e.Sums(); !slices.EqualFunc(got, want, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	}) {
		tb.Fatalf("%s: incremental sums %v, fresh %v", where, got, want)
	}
}

// checkDirty checks that the dirty set holds every row that differs from
// bound, the rows as of the last bind, and that the dirty and pending
// sets together hold every row that differs from priced, the rows as of
// the last estimate. (A site that moved since then is found by the next
// bind, which checkPasses checks.)
func checkDirty(tb testing.TB, st *searchState, bound, priced []plan.FlatNode, where string) {
	tb.Helper()
	for i, row := range st.flat.Nodes {
		if row != bound[i] && !st.dirty.in[i] {
			tb.Fatalf("%s: node %d's row changed since the last bind but is not dirty", where, i)
		}
		if row != priced[i] && !st.dirty.in[i] && !st.unpriced.in[i] {
			tb.Fatalf("%s: node %d's row changed since the last estimate but is in neither set", where, i)
		}
	}
}

// TestSearchDeltaSpans runs the walk in every environment and checks that
// the walks bound and estimated across runs of memo hits and of unbindable
// candidates, so that the dirty and pending sets were tested across them.
func TestSearchDeltaSpans(t *testing.T) {
	var stats walkStats
	for i, env := range deltaEnvs() {
		seed := int64(300 + i)
		s := walk(t, env.search(t, seed), rand.New(rand.NewSource(seed)), 150, env.String())
		stats.hitRun = max(stats.hitRun, s.hitRun)
		stats.unbindableRun = max(stats.unbindableRun, s.unbindableRun)
	}
	t.Logf("longest runs between passes: %d memo hits, %d unbindable candidates", stats.hitRun, stats.unbindableRun)
	if stats.hitRun < 3 || stats.unbindableRun < 2 {
		t.Errorf("longest runs between passes: %d memo hits, %d unbindable candidates; want at least 3 and 2",
			stats.hitRun, stats.unbindableRun)
	}
}

// deltaEnvs covers every policy and metric, with and without replicas,
// selections, aggregates, the minimum allocation and left-deep moves.
func deltaEnvs() []deltaEnv {
	var envs []deltaEnv
	for _, pol := range []plan.Policy{plan.DataShipping, plan.QueryShipping, plan.HybridShipping} {
		for _, metric := range []cost.Metric{cost.MetricTotalCost, cost.MetricResponseTime, cost.MetricPagesSent} {
			envs = append(envs,
				deltaEnv{ways: 6, servers: 3, rf: 2, cached: 0.5, selects: true, pol: pol, metric: metric},
				deltaEnv{ways: 5, servers: 4, rf: 3, agg: true, maxAlloc: true, pol: pol, metric: metric},
				deltaEnv{ways: 4, servers: 2, rf: 2, selects: true, agg: true, pol: pol, metric: metric, leftDeep: true},
				deltaEnv{ways: 2, servers: 1, cached: 0.25, pol: pol, metric: metric},
			)
		}
	}
	return envs
}

// TestSearchDeltaMatchesFresh runs the differential walk in every
// environment of deltaEnvs.
func TestSearchDeltaMatchesFresh(t *testing.T) {
	hits := 0
	for i, env := range deltaEnvs() {
		seed := int64(100 + i)
		st := env.search(t, seed)
		hits += deltaWalk(t, st, rand.New(rand.NewSource(seed)), 150, env.String())
	}
	if hits == 0 {
		t.Error("no candidate came from the memo; the walks do not test its hits")
	}
}

// FuzzSearchDelta runs the differential walk on a fuzzed environment, seed
// and walk length.
func FuzzSearchDelta(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(40))
	f.Add(uint8(7), int64(2), uint8(200))
	f.Add(uint8(25), int64(3), uint8(120))
	f.Add(uint8(42), int64(4), uint8(255))
	envs := deltaEnvs()
	f.Fuzz(func(t *testing.T, which uint8, seed int64, steps uint8) {
		env := envs[int(which)%len(envs)]
		st := env.search(t, seed)
		deltaWalk(t, st, rand.New(rand.NewSource(seed)), int(steps), env.String())
	})
}

// TestSearchDeltaForeignSelect walks from plans with a selection over a
// relation the catalog lacks, as OptimizeFrom may be given: its node has no
// relation ID, and the estimate takes the query's default selectivity for
// it. The starts share one search, and so one memo.
func TestSearchDeltaForeignSelect(t *testing.T) {
	cat, q := chainEnv(4, 2, 0)
	o := newOpt(cat, q, plan.HybridShipping, cost.MetricResponseTime, 11)
	st := newSearch(o, o.opts, rand.New(rand.NewSource(11)))
	for start := 0; start < 4; start++ {
		root, err := o.randomTree(st.rng, &st.binder)
		if err != nil {
			t.Fatal(err)
		}
		// Put the foreign selection above the first scan in pre-order.
		target := root.Scans()[0]
		var slot **plan.Node
		root.Walk(func(n *plan.Node) {
			for _, c := range []**plan.Node{&n.Left, &n.Right} {
				if *c == target {
					slot = c
				}
			}
		})
		*slot = plan.NewSelect(target, fmt.Sprint("ghost", start))
		st.reset(root)
		deltaWalk(t, st, rand.New(rand.NewSource(int64(start))), 150, fmt.Sprintf("start %d", start))
	}
}
