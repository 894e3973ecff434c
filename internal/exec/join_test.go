package exec

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/plan"
	"hybridship/internal/sim"
	"hybridship/internal/workload"
)

// newTestJoin builds an unopened R0 ⋈ R1 join at the client of a 2-way
// chain, with its build table taken from the engine pool.
func newTestJoin(t testing.TB) (*engine, *hashJoin) {
	t.Helper()
	cfg := chainConfig(t, 2, 1, workload.Moderate, true)
	s, _, err := newSession(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := s.e
	inner, outer := cfg.Query.RelMask("R0"), cfg.Query.RelMask("R1")
	j := e.newHashJoin(catalog.Client, nil, nil, inner, outer, 4, 4, &chargeAcc{site: e.client})
	j.table = e.pool.getTable(len(j.buildOut), len(j.bkey.slots))
	return e, j
}

// relPage returns a full pooled one-column page of rel's rows with ids
// 0..tpp-1, a scan's page. With the moderate chain's Next, R1 rows walk
// back into R0's ids.
func relPage(e *engine, j *hashJoin, rel string) *colBatch {
	b := e.pool.get(1, j.tpp)
	b.n = j.tpp
	for i, col := 0, b.col(0); i < len(col); i++ {
		col[i] = int64(i)
	}
	return b
}

// freeBatches counts the batches on bp's free lists, over every width.
func freeBatches(bp *batchPool) int {
	n := 0
	for _, free := range bp.batches {
		n += len(free)
	}
	return n
}

// drainOutput releases the join's output pages and pending charge parts,
// as the consumer and the next flush would.
func drainOutput(e *engine, j *hashJoin) {
	j.rdy.drainTo(&e.pool)
	e.pool.put(j.cur)
	j.cur = nil
	j.acc.parts = j.acc.parts[:0]
}

// TestVecProbeEmitZeroAlloc pins the probe kernel's allocation contract:
// once the scratch vectors, output page, and charge parts are warm, probing
// a page — chain walks, key compares, column-at-a-time emits, charge
// accrual — allocates nothing.
func TestVecProbeEmitZeroAlloc(t *testing.T) {
	e, j := newTestJoin(t)
	j.buildPage(nil, relPage(e, j, "R0"), nil)
	probe := relPage(e, j, "R1")

	probeBatch := func() {
		j.probePage(nil, probe, nil)
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

// TestBuildPageZeroAlloc pins the build kernel's allocation contract: once
// the key scratch and the table's storage are warm, inserting a page —
// key evaluation, one append per column, the link pass — allocates
// nothing.
func TestBuildPageZeroAlloc(t *testing.T) {
	e, j := newTestJoin(t)
	build := relPage(e, j, "R0")
	buildBatch := func() {
		j.table.reset()
		for range 4 {
			j.buildPage(nil, build, nil)
		}
		drainOutput(e, j)
	}
	buildBatch() // warm the key scratch and the table storage
	if avg := testing.AllocsPerRun(50, buildBatch); avg != 0 {
		t.Errorf("building 4 pages allocates %.2f allocs, want 0", avg)
	}
	if got, want := len(j.table.hashes), 4*build.n; got != want {
		t.Fatalf("table holds %d entries, want %d", got, want)
	}
}

// TestSpillPageZeroAlloc pins the spill path's allocation contract on a warm
// pool: filling a pooled partition page, and handling a read-back page pair
// — the build kernel on an inner page, the probe kernel on an outer one —
// allocate nothing. The disk write that seals a full page and the disk read
// that returns it are kernel requests and stay outside the measured
// closures.
func TestSpillPageZeroAlloc(t *testing.T) {
	e, j := newTestJoin(t)
	if j.tpp < 2 {
		t.Fatalf("tpp = %d: a page cannot be filled without sealing it", j.tpp)
	}
	inner, outer := relPage(e, j, "R0"), relPage(e, j, "R1")

	src := batchCols(inner, nil)
	rows := make([]int32, j.tpp-1) // one row short of the sealing write
	for i := range rows {
		rows[i] = int32(i)
	}
	pt := newPartition(j.tpp, 1)
	var seals []sealEvent
	fill := func() {
		seals = pt.fill(&e.pool, src, rows, seals[:0])
		e.pool.put(pt.cur)
		pt.cur = nil
	}
	fill() // warm the pool with a page batch
	if avg := testing.AllocsPerRun(50, fill); avg != 0 {
		t.Errorf("filling a partition page allocates %.2f allocs per page, want 0", avg)
	}
	if len(seals) != 0 {
		t.Fatalf("%d pages filled, want none", len(seals))
	}

	readBack := func() {
		j.table.reset()
		j.buildPage(nil, inner, nil)
		j.probePage(nil, outer, nil)
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
			if n := freeBatches(bp); n != bp.newBatches {
				t.Errorf("pool holds %d of the %d batches it created", n, bp.newBatches)
			}
			if len(bp.tables) != bp.newTables {
				t.Errorf("pool holds %d of the %d tables it created", len(bp.tables), bp.newTables)
			}
		})
	}
}

// kernelCase is one input to the join page kernels: a join of a build side
// scanning relation slots 0 and 1 with a probe side scanning slots 2 and 3,
// so that each side's pages have two columns and the output pages four,
// keyed on the first kw columns of each side, with the kernel-visible shape
// (page size tpp, spilled partition count, memory share, temp chunk) set
// directly.
type kernelCase struct {
	kw, nParts, tpp, chunk int
	frac0                  float64
	inner, outer           [][]kernelRow // input pages
}

// kernelRow is one row by relation slot; a slot outside the row's side
// holds noSlot.
type kernelRow [4]int64

const noSlot = int64(-1)

// The relation slots of the columns of a build, a probe and an output page.
var buildSlots, probeSlots, outSlots = []int{0, 1}, []int{2, 3}, []int{0, 1, 2, 3}

// kernelRun is what one run of a kernelCase leaves behind.
type kernelRun struct {
	out                    [][]kernelRow   // output pages, in order
	innerSpill, outerSpill [][][]kernelRow // per spilled partition: its pages
	innerAddrs, outerAddrs [][]diskAddr    // per spilled partition: its temp pages
	trace                  []kernelDispatch
}

// kernelDispatch is one kernel dispatch of the run: a CPU charge part of
// the joining process shows as one dispatch at the instant it ends, so the
// sequence pins every part's amount, its order, and where each flush falls
// against the disk requests.
type kernelDispatch struct {
	at      sim.Time
	proc    string
	cpuReqs int64
}

// decodeKernelCase reads a case from fuzz bytes; missing bytes read as 0.
func decodeKernelCase(data []byte) kernelCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	c := kernelCase{
		kw:     1 + next()%2,
		nParts: next() % 4,
		tpp:    1 + next()%6,
		chunk:  1 + next()%3,
	}
	c.frac0 = float64(next()%5) / 4
	pages := func(build bool) [][]kernelRow {
		var ps [][]kernelRow
		for range next() % 5 {
			pg := make([]kernelRow, next()%(2*c.tpp+2))
			for i := range pg {
				b := next()
				v0, v1 := int64(b&3), int64(b>>2&3)
				if build {
					pg[i] = kernelRow{v0, v1, noSlot, noSlot}
				} else {
					pg[i] = kernelRow{noSlot, noSlot, v0, v1}
				}
			}
			ps = append(ps, pg)
		}
		return ps
	}
	c.inner = pages(true)
	c.outer = pages(false)
	return c
}

// kernelSession returns a fresh engine for one run of c, with the kernel's
// dispatches recorded into tr.
func kernelSession(t *testing.T, tr *[]kernelDispatch) *engine {
	t.Helper()
	s, _, err := newSession(chainConfig(t, 2, 1, workload.Moderate, false), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := s.e
	e.sim.Trace = func(at sim.Time, proc string) {
		*tr = append(*tr, kernelDispatch{at, proc, e.client.cpu.Requests()})
	}
	return e
}

// newKernelJoin builds c's join at the client of e over the given inputs:
// its column layout comes from the two sides' relation masks.
func newKernelJoin(e *engine, c kernelCase, inner, outer iterator) *hashJoin {
	j := e.newHashJoin(catalog.Client, inner, outer, 0b0011, 0b1100, 1, 1, &chargeAcc{})
	j.tpp = c.tpp
	j.bkey = &keyer{slots: []int{0, 1}[:c.kw], applyNx: make([]bool, c.kw)}
	j.pkey = &keyer{slots: []int{0, 1}[:c.kw], applyNx: make([]bool, c.kw)}
	j.al = joinAlloc{memPages: 2, nParts: c.nParts, chunkPages: c.chunk}
	j.al.setShare(c.frac0)
	if c.nParts == 0 {
		j.al.setShare(1)
	}
	return j
}

// kernelIter hands out pooled copies of its pages, one column per slot of
// slots, and calls eof when drained.
type kernelIter struct {
	e     *engine
	slots []int
	pages [][]kernelRow
	eof   func()
}

func (it *kernelIter) open(p *sim.Proc)  {}
func (it *kernelIter) close(p *sim.Proc) {}
func (it *kernelIter) next(p *sim.Proc) (*colBatch, bool) {
	if len(it.pages) == 0 {
		if it.eof != nil {
			it.eof()
			it.eof = nil
		}
		return nil, false
	}
	pg := it.pages[0]
	it.pages = it.pages[1:]
	b := it.e.pool.get(len(it.slots), max(len(pg), 1))
	b.n = len(pg)
	for c, slot := range it.slots {
		col := b.col(c)
		for i, r := range pg {
			col[i] = r[slot]
		}
	}
	return b, true
}

// batchRows reads page b's rows by slot: column k holds slot slots[k]. A
// page of another width than len(slots) breaks the layout, and panics.
func batchRows(b *colBatch, slots []int) []kernelRow {
	if b.w != len(slots) {
		panic(fmt.Sprintf("page has %d columns, want %d (slots %v)", b.w, len(slots), slots))
	}
	rows := make([]kernelRow, b.n)
	for i := range rows {
		rows[i] = kernelRow{noSlot, noSlot, noSlot, noSlot}
		for k, slot := range slots {
			rows[i][slot] = b.col(k)[i]
		}
	}
	return rows
}

// partitionRows copies out each partition's pages, the one being filled
// last; slots are the partition's side's.
func partitionRows(pts []*partition, slots []int) [][][]kernelRow {
	var out [][][]kernelRow
	for _, pt := range pts {
		var pages [][]kernelRow
		for _, b := range pt.pages {
			pages = append(pages, batchRows(b, slots))
		}
		if pt.cur != nil {
			pages = append(pages, batchRows(pt.cur, slots))
		}
		out = append(out, pages)
	}
	return out
}

// runKernelJoin runs c through the hash join and its page kernels.
func runKernelJoin(t *testing.T, c kernelCase) kernelRun {
	var r kernelRun
	e := kernelSession(t, &r.trace)
	var j *hashJoin
	outer := &kernelIter{e: e, slots: probeSlots, pages: c.outer,
		eof: func() { r.outerSpill = partitionRows(j.outerParts, probeSlots) }}
	j = newKernelJoin(e, c, &kernelIter{e: e, slots: buildSlots, pages: c.inner}, outer)
	e.sim.Spawn("join", func(p *sim.Proc) {
		j.open(p)
		r.innerSpill = partitionRows(j.innerParts, buildSlots)
		for {
			b, ok := j.next(p)
			if !ok {
				break
			}
			r.out = append(r.out, batchRows(b, outSlots))
			e.pool.put(b)
		}
		j.acc.flush(p)
		for _, pt := range j.innerParts {
			r.innerAddrs = append(r.innerAddrs, append([]diskAddr(nil), pt.addrs...))
		}
		for _, pt := range j.outerParts {
			r.outerAddrs = append(r.outerAddrs, append([]diskAddr(nil), pt.addrs...))
		}
		j.close(p)
	})
	e.sim.Run()
	return r
}

// refHash is the composite FNV-1a key hash of one row's key vector.
func refHash(keys []int64) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range keys {
		for sh := 0; sh < 64; sh += 8 {
			h = (h ^ (uint64(v>>sh) & 0xff)) * fnvPrime64
		}
	}
	return h
}

// refEntry is one build row of the reference's table.
type refEntry struct {
	row  kernelRow
	keys []int64
}

// refPart is one spilled partition of the reference: pages of rows, sealed
// at tpp rows into temp pages taken a chunk at a time.
type refPart struct {
	pages [][]kernelRow
	addrs []diskAddr
	next  diskAddr
	left  int
}

// runReferenceJoin runs c through a plain row-at-a-time hybrid hash join: a
// map from the exact 64-bit key hash to its entries in insertion order,
// each row routed, inserted or spilled, probed and emitted on its own, and
// every charge queued through the accumulator as it arises.
func runReferenceJoin(t *testing.T, c kernelCase) kernelRun {
	var r kernelRun
	e := kernelSession(t, &r.trace)
	j := newKernelJoin(e, c, nil, nil) // for its site, allocation and accumulator only
	s, acc, pr := j.atSite, j.acc, &e.cfg.Params
	keys := func(row kernelRow, build bool) []int64 {
		if build {
			return row[:c.kw]
		}
		return row[2 : 2+c.kw]
	}
	var (
		table        map[uint64][]refEntry
		cur          []kernelRow
		inner, outer = make([]refPart, c.nParts), make([]refPart, c.nParts)
	)
	seal := func(p *sim.Proc, pt *refPart) {
		acc.flush(p)
		if pt.left == 0 {
			pt.next = s.allocTemp(c.chunk)
			pt.left = c.chunk
		}
		pt.addrs = append(pt.addrs, pt.next)
		addr := pt.next
		pt.next = pt.next.plus(1)
		pt.left--
		s.chargeCPU(p, *pr, pr.DiskInst)
		s.write(p, addr)
	}
	spill := func(p *sim.Proc, pt *refPart, row kernelRow) {
		if n := len(pt.pages); n == 0 || len(pt.pages[n-1]) == c.tpp {
			pt.pages = append(pt.pages, nil)
		}
		last := &pt.pages[len(pt.pages)-1]
		*last = append(*last, row)
		if len(*last) == c.tpp {
			seal(p, pt)
		}
	}
	complete := func(p *sim.Proc, pts []refPart) {
		for k := range pts {
			if n := len(pts[k].pages); n > 0 && len(pts[k].pages[n-1]) < c.tpp {
				seal(p, &pts[k])
			}
		}
	}
	insert := func(row kernelRow) {
		ks := keys(row, true)
		h := refHash(ks)
		table[h] = append(table[h], refEntry{row, ks})
	}
	probe := func(p *sim.Proc, row kernelRow) {
		ks := keys(row, false)
		list := table[refHash(ks)]
		matched := 0
		for _, en := range list {
			if slices.Equal(en.keys, ks) {
				cur = append(cur, kernelRow{en.row[0], en.row[1], row[2], row[3]})
				if len(cur) == c.tpp {
					r.out = append(r.out, cur)
					cur = nil
				}
				matched++
			}
		}
		if len(list) == 0 {
			return
		}
		acc.add(p, s, pr, pr.CompareInst*float64(len(list)))
		if matched > 0 {
			acc.add(p, s, pr, pr.MoveInst*float64(e.cfg.Query.ResultTupleBytes)/4*float64(matched))
		}
	}
	readBack := func(p *sim.Proc, pt *refPart, i int) []kernelRow {
		acc.flush(p)
		s.chargeCPU(p, *pr, pr.DiskInst)
		s.read(p, pt.addrs[i])
		return pt.pages[i]
	}
	e.sim.Spawn("join", func(p *sim.Proc) {
		table = map[uint64][]refEntry{}
		for _, pg := range c.inner {
			acc.add(p, s, pr, pr.HashInst*float64(len(pg)))
			for _, row := range pg {
				if part := j.al.route(refHash(keys(row, true))); part == 0 {
					insert(row)
				} else {
					spill(p, &inner[part-1], row)
				}
			}
		}
		complete(p, inner)
		for _, pg := range c.outer {
			acc.add(p, s, pr, pr.HashInst*float64(len(pg)))
			for _, row := range pg {
				if part := j.al.route(refHash(keys(row, false))); part == 0 {
					probe(p, row)
				} else {
					spill(p, &outer[part-1], row)
				}
			}
		}
		for k := range outer {
			r.outerSpill = append(r.outerSpill, slices.Clone(outer[k].pages))
		}
		complete(p, outer)
		for k := range inner {
			r.innerSpill = append(r.innerSpill, inner[k].pages)
			table = map[uint64][]refEntry{}
			for i := range inner[k].pages {
				pg := readBack(p, &inner[k], i)
				acc.add(p, s, pr, pr.HashInst*float64(len(pg)))
				for _, row := range pg {
					insert(row)
				}
			}
			for i := range outer[k].pages {
				pg := readBack(p, &outer[k], i)
				acc.add(p, s, pr, pr.HashInst*float64(len(pg)))
				for _, row := range pg {
					probe(p, row)
				}
			}
		}
		if len(cur) > 0 {
			r.out = append(r.out, cur)
		}
		acc.flush(p)
		for k := range inner {
			r.innerAddrs = append(r.innerAddrs, inner[k].addrs)
			r.outerAddrs = append(r.outerAddrs, outer[k].addrs)
		}
	})
	e.sim.Run()
	return r
}

// checkKernelCase runs c through the page kernels and the reference and
// compares everything observable.
func checkKernelCase(t *testing.T, c kernelCase) {
	t.Helper()
	got, want := runKernelJoin(t, c), runReferenceJoin(t, c)
	if !reflect.DeepEqual(got.out, want.out) {
		t.Errorf("output pages differ:\n kernels   %v\n reference %v", got.out, want.out)
	}
	if !reflect.DeepEqual(got.innerSpill, want.innerSpill) || !reflect.DeepEqual(got.outerSpill, want.outerSpill) {
		t.Errorf("spilled partitions differ:\n kernels   %v / %v\n reference %v / %v",
			got.innerSpill, got.outerSpill, want.innerSpill, want.outerSpill)
	}
	if !reflect.DeepEqual(got.innerAddrs, want.innerAddrs) || !reflect.DeepEqual(got.outerAddrs, want.outerAddrs) {
		t.Errorf("spill temp pages differ:\n kernels   %v / %v\n reference %v / %v",
			got.innerAddrs, got.outerAddrs, want.innerAddrs, want.outerAddrs)
	}
	if !slices.Equal(got.trace, want.trace) {
		n := 0
		for n < min(len(got.trace), len(want.trace)) && got.trace[n] == want.trace[n] {
			n++
		}
		t.Errorf("dispatch sequences differ at %d (of %d vs %d): kernels %v, reference %v", n,
			len(got.trace), len(want.trace), got.trace[n:min(n+3, len(got.trace))], want.trace[n:min(n+3, len(want.trace))])
	}
}

// FuzzJoinPageKernel compares the hash join's page kernels against a plain
// row-at-a-time reference: output rows, their order and page boundaries,
// the spilled partitions' pages and temp addresses, and every charge part
// and flush point (as the kernel dispatch sequence).
func FuzzJoinPageKernel(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 4, 2, 5, 1, 2, 3, 4, 5, 3, 0, 1, 2, 2, 4, 0, 1, 2, 3, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 0, 3, 0, 4, 3, 7, 0, 5, 10, 15, 1, 6, 11, 2, 8, 1, 2, 3, 4, 5, 6, 7, 2, 9, 0, 5, 10, 15, 4, 8, 12, 3, 7})
	f.Add([]byte{0, 2, 2, 0, 2, 3, 5, 0, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 7, 0, 2, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 7, 1, 3, 5, 7, 9, 11, 13})
	f.Add([]byte{1, 3, 3, 1, 1, 4, 7, 0, 5, 10, 15, 1, 6, 11, 7, 2, 7, 12, 3, 8, 13, 4, 3, 1, 2, 3, 4, 7, 9, 8, 7, 6, 5, 4, 3, 2, 1, 6, 0, 5, 10, 15, 3, 6})
	f.Add([]byte{0, 1, 0, 0, 3, 2, 2, 1, 2, 3, 0, 1, 2})
	f.Add([]byte("119089z00!001000000001")) // a probe page seals a spill page between matching rows
	f.Fuzz(func(t *testing.T, data []byte) {
		checkKernelCase(t, decodeKernelCase(data))
	})
}

// TestSpillSealFlushesFirst: a spill page that fills in the middle of an
// input page is sealed behind the charges of the rows before it. Those
// charges — the page's HashInst and, on the probe side, the earlier rows'
// CompareInst and MoveInst parts — are realized before the seal takes its
// temp chunk and before its disk write reaches the disk, and the later
// rows' parts after.
func TestSpillSealFlushesFirst(t *testing.T) {
	for _, side := range []string{"build", "probe"} {
		t.Run(side, func(t *testing.T) {
			var tr []kernelDispatch
			e := kernelSession(t, &tr)
			c := kernelCase{kw: 1, nParts: 1, tpp: 2, chunk: 1, frac0: 0.5}
			j := newKernelJoin(e, c, nil, nil)
			mem, spill := int64(-1), int64(-1)
			for v := int64(0); mem < 0 || spill < 0; v++ {
				if j.al.route(refHash([]int64{v})) == 0 {
					mem = max(mem, v)
				} else {
					spill = max(spill, v)
				}
			}
			// A page of either side: the key column, then a zero column.
			page := func(keys ...int64) *colBatch {
				b := e.pool.get(2, len(keys))
				b.n = len(keys)
				copy(b.col(0), keys)
				clear(b.col(1))
				return b
			}
			// Rows 0 and 1 go to memory, rows 2 and 3 fill the spill page,
			// rows 4 and 5 go to memory: the seal falls at row 3.
			keys := []int64{mem, mem, spill, spill, mem, mem}
			pending := 1 // the page's HashInst
			if side == "probe" {
				pending += 4 // rows 0 and 1: CompareInst, then MoveInst
			}
			var (
				armed      bool
				base       int64
				tempBefore int
				seen       []kernelDispatch
				tempAt     []int
			)
			e.sim.Trace = func(at sim.Time, proc string) {
				if armed {
					seen = append(seen, kernelDispatch{at, proc, e.client.cpu.Requests()})
					tempAt = append(tempAt, e.client.tempRR)
				}
			}
			e.sim.Spawn("join", func(p *sim.Proc) {
				j.table = e.pool.getTable(len(j.buildOut), c.kw)
				parts := []*partition{newPartition(j.tpp, c.chunk)}
				if side == "probe" {
					j.buildPage(p, page(mem), nil)
				}
				j.acc.flush(p)
				base, tempBefore, armed = e.client.cpu.Requests(), e.client.tempRR, true
				if side == "build" {
					j.buildPage(p, page(keys...), parts)
				} else {
					j.probePage(p, page(keys...), parts)
				}
				armed = false
				if len(parts[0].pages) != 1 {
					t.Errorf("%d spill pages sealed, want 1", len(parts[0].pages))
				}
				j.acc.flush(p)
			})
			e.sim.Run()

			write := slices.IndexFunc(seen, func(d kernelDispatch) bool { return d.proc != "join" })
			if write < 0 {
				t.Fatal("the seal's disk write never reached the disk")
			}
			if got, want := seen[write].cpuReqs-base, int64(pending+1); got != want {
				t.Errorf("%d charges realized when the write reached the disk, want %d (the %d pending, then DiskInst)",
					got, want, pending)
			}
			for i, d := range seen[:write] {
				if d.cpuReqs-base <= int64(pending) && tempAt[i] != tempBefore {
					t.Errorf("the temp chunk was taken before pending charge %d was realized", d.cpuReqs-base)
				}
			}
			if len(j.acc.parts) != 0 {
				t.Errorf("%d charge parts left pending", len(j.acc.parts))
			}
		})
	}
}

// TestProbeCountsCandidatesByHash: a candidate is an entry with the probe
// row's exact 64-bit hash, whatever its key; only a candidate with an equal
// key matches. Hash collisions are too rare to reach through real keys, so
// the table and the probe rows get their hashes by hand.
func TestProbeCountsCandidatesByHash(t *testing.T) {
	e, j := newTestJoin(t)
	const h, h2, h3 = 0xfeed, 0xfeed + 1<<20, 0xbeef
	cols := [][]int64{{10, 11, 12, 13}}
	j.table.insertRows([]int32{0, 1, 2, 3}, 4, []uint64{h, h, h, h2}, cols, [][]int64{{5, 6, 5, 9}})
	j.ks.mem = append(j.ks.mem[:0], 0, 1, 2)
	j.probeRows([]uint64{h, h, h3}, [][]int64{{5, 7, 5}})

	pr := &e.cfg.Params
	part := func(instr float64) sim.Time { return sim.Time(pr.CPUTime(instr)) }
	ks := &j.ks
	if want := []int32{0, 2}; !slices.Equal(ks.ment, want) {
		t.Errorf("matched entries %v, want %v", ks.ment, want)
	}
	if want := []int32{0, 0}; !slices.Equal(ks.mrow, want) {
		t.Errorf("matching probe rows %v, want %v", ks.mrow, want)
	}
	if want := []sim.Time{part(pr.CompareInst * 3), part(j.moveTuple * 2), part(pr.CompareInst * 3)}; !slices.Equal(ks.parts, want) {
		t.Errorf("charge parts %v, want %v", ks.parts, want)
	}
	if want := []int32{0, 2, 3, 3}; !slices.Equal(ks.pend, want) {
		t.Errorf("parts per probed row prefix %v, want %v", ks.pend, want)
	}
}
