package exec

import (
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/workload"
)

// TestVecProbeEmitZeroAlloc pins the join's hot-path allocation contract: once the
// scratch vectors, output page, and charge parts are warm, probing a batch
// of rows — candidate walk, key compares, merged emits, charge accrual —
// allocates nothing.
func TestVecProbeEmitZeroAlloc(t *testing.T) {
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inner, outer := cfg.Query.RelMask("R0"), cfg.Query.RelMask("R1")
	j := e.newHashJoin(catalog.Client, nil, nil, inner, outer, 4, 4, &chargeAcc{site: e.client})
	j.table = e.pool.getTable(j.w, len(j.bkey.slots))

	// Build: one page of R0 rows keyed on their own ids.
	build := e.pool.get(j.w, j.tpp)
	build.n = j.tpp
	for c := 0; c < j.w; c++ {
		col := build.col(c)
		for i := range col {
			col[i] = absent
			if c == e.relIdx["R0"] {
				col[i] = int64(i)
			}
		}
	}
	j.icols = batchCols(build, j.icols)
	j.ikcols = j.bkey.slotCols(j.icols, j.ikcols)
	j.ikeyv = j.bkey.evalCols(j.ikcols, build.n, j.ikeyv)
	j.ihash = hashKeyCols(j.ikeyv, build.n, j.ihash)
	for i := 0; i < build.n; i++ {
		j.insertRow(j.icols, j.ikeyv, i, j.ihash[i])
	}

	// Probe batch: R1 rows whose Next(R1, id) walks back into R0's ids.
	probe := e.pool.get(j.w, j.tpp)
	probe.n = j.tpp
	for c := 0; c < j.w; c++ {
		col := probe.col(c)
		for i := range col {
			col[i] = absent
			if c == e.relIdx["R1"] {
				col[i] = int64(i)
			}
		}
	}
	j.ocols = batchCols(probe, j.ocols)
	j.okcols = j.pkey.slotCols(j.ocols, j.okcols)
	j.okeyv = j.pkey.evalCols(j.okcols, probe.n, j.okeyv)
	j.ohash = hashKeyCols(j.okeyv, probe.n, j.ohash)

	probeBatch := func() {
		for i := 0; i < probe.n; i++ {
			j.probeRow(nil, j.ocols, j.okeyv, i, j.ohash[i])
		}
		j.rdy.drainTo(&e.pool)
		e.pool.put(j.cur)
		j.cur = nil
		j.acc.parts = j.acc.parts[:0]
	}
	probeBatch() // warm the output page, ready ring, and charge parts
	if avg := testing.AllocsPerRun(50, probeBatch); avg != 0 {
		t.Errorf("probe-emit allocates %.2f allocs per batch, want 0", avg)
	}
	if j.outCount == 0 {
		t.Fatal("probe produced no matches; the guard is not exercising the emit path")
	}
}
