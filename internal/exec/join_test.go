package exec

import (
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/plan"
	"hybridship/internal/sim"
	"hybridship/internal/workload"
)

// newTestJoin builds an unopened R0 ⋈ R1 join at the client of a 2-way
// chain, with its build table taken from the engine pool.
func newTestJoin(t *testing.T) (*engine, *hashJoin) {
	t.Helper()
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	s, _, err := newSession(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := s.e
	inner, outer := cfg.Query.RelMask("R0"), cfg.Query.RelMask("R1")
	j := e.newHashJoin(catalog.Client, nil, nil, inner, outer, 4, 4, &chargeAcc{site: e.client})
	j.table = e.pool.getTable(len(j.buildCols), len(j.bkey.slots))
	return e, j
}

// relPage returns a full pooled page of rel's rows with ids 0..tpp-1 and
// every other column absent. With the moderate chain's Next, R1 rows walk
// back into R0's ids.
func relPage(e *engine, j *hashJoin, rel string) *colBatch {
	b := e.pool.get(j.w, j.tpp)
	b.n = j.tpp
	for c := 0; c < j.w; c++ {
		col := b.col(c)
		for i := range col {
			col[i] = absent
			if uint64(1)<<c == e.cfg.Query.RelMask(rel) {
				col[i] = int64(i)
			}
		}
	}
	return b
}

// drainOutput releases the join's output pages and pending charge parts,
// as the consumer and the next flush would.
func drainOutput(e *engine, j *hashJoin) {
	j.rdy.drainTo(&e.pool)
	e.pool.put(j.cur)
	j.cur = nil
	j.acc.parts = j.acc.parts[:0]
}

// TestVecProbeEmitZeroAlloc pins the join's hot-path allocation contract: once the
// scratch vectors, output page, and charge parts are warm, probing a batch
// of rows — candidate walk, key compares, merged emits, charge accrual —
// allocates nothing.
func TestVecProbeEmitZeroAlloc(t *testing.T) {
	e, j := newTestJoin(t)
	build := relPage(e, j, "R0")
	j.build.load(j.bkey, build)
	for i := 0; i < build.n; i++ {
		j.insertRow(j.build.cols, j.build.keyv, i, j.build.hash[i])
	}
	probe := relPage(e, j, "R1")
	j.probe.load(j.pkey, probe)

	probeBatch := func() {
		for i := 0; i < probe.n; i++ {
			j.probeRow(nil, j.probe.cols, j.probe.keyv, i, j.probe.hash[i])
		}
		drainOutput(e, j)
	}
	probeBatch() // warm the output page, ready ring, and charge parts
	if avg := testing.AllocsPerRun(50, probeBatch); avg != 0 {
		t.Errorf("probe-emit allocates %.2f allocs per batch, want 0", avg)
	}
	if j.outCount == 0 {
		t.Fatal("probe produced no matches; the guard is not exercising the emit path")
	}
}

// TestSpillPageZeroAlloc pins the spill path's allocation contract on a warm
// pool: filling a pooled partition page, and handling a read-back page —
// per-page key evaluation, then insertRow for an inner page and probeRow
// for an outer one — allocate nothing. The disk write that seals a full page
// and the disk read that returns it are kernel requests and stay outside the
// measured closures.
func TestSpillPageZeroAlloc(t *testing.T) {
	e, j := newTestJoin(t)
	if j.tpp < 2 {
		t.Fatalf("tpp = %d: a page cannot be filled without sealing it", j.tpp)
	}
	inner, outer := relPage(e, j, "R0"), relPage(e, j, "R1")

	src := batchCols(inner, nil)
	pt := newPartition(j.buildCols, j.w, j.tpp, 1)
	fill := func() {
		for i := 0; i < j.tpp-1; i++ { // one row short of the sealing write
			pt.addRow(e, nil, nil, j.acc, src, i)
		}
		e.pool.put(pt.cur)
		pt.cur = nil
	}
	fill() // warm the pool with a page batch
	if avg := testing.AllocsPerRun(50, fill); avg != 0 {
		t.Errorf("filling a partition page allocates %.2f allocs per page, want 0", avg)
	}

	readBack := func() {
		j.table.reset()
		j.build.load(j.bkey, inner)
		for r := 0; r < inner.n; r++ {
			j.insertRow(j.build.cols, j.build.keyv, r, j.build.hash[r])
		}
		j.probe.load(j.pkey, outer)
		for r := 0; r < outer.n; r++ {
			j.probeRow(nil, j.probe.cols, j.probe.keyv, r, j.probe.hash[r])
		}
		drainOutput(e, j)
	}
	readBack() // warm the key scratch, table storage and output page
	if avg := testing.AllocsPerRun(50, readBack); avg != 0 {
		t.Errorf("a read-back page pair allocates %.2f allocs, want 0", avg)
	}
	if j.outCount == 0 {
		t.Fatal("read-back probe produced no matches; the guard is not exercising the emit path")
	}
}

// TestSpillReturnsPoolStorage checks that a completed minimum-allocation run
// gives every batch and hash table the engine pool created back to its free
// lists: spilled partition pages as soon as their pass has read them, the
// rest at close. Only completed runs are checked: an aborted attempt unwinds
// without close, and its pages are garbage-collected rather than pooled.
func TestSpillReturnsPoolStorage(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n, servers int
		pol        plan.Policy
	}{
		{"QS10way", 10, 4, plan.QueryShipping}, // BenchmarkRunSpill's plan
		{"HY2way", 2, 1, plan.HybridShipping},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := chainConfig(t, tc.n, tc.servers, workload.Moderate, false)
			bound := mustBind(t, &cfg, annotate(leftDeepChain(tc.n), tc.pol))
			s, _, err := newSession(cfg, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			e := s.e
			var (
				qr   QueryResult
				qerr error
			)
			e.sim.Spawn("query", func(p *sim.Proc) {
				qr, qerr = s.Execute(p, 0, bound, QueryOpts{})
			})
			e.sim.Run()
			if qerr != nil {
				t.Fatal(qerr)
			}
			if qr.ResultTuples == 0 {
				t.Fatal("the query produced no tuples")
			}
			writes := e.client.aggregateStats().Writes
			for _, s := range e.servers {
				writes += s.aggregateStats().Writes
			}
			if writes == 0 {
				t.Fatal("no join spilled; the check is not exercising partition pages")
			}
			bp := &e.pool
			if len(bp.batches) != bp.newBatches {
				t.Errorf("pool holds %d of the %d batches it created", len(bp.batches), bp.newBatches)
			}
			if len(bp.tables) != bp.newTables {
				t.Errorf("pool holds %d of the %d tables it created", len(bp.tables), bp.newTables)
			}
		})
	}
}
