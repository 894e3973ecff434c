package exec

import (
	"math"

	"hybridship/internal/catalog"
	"hybridship/internal/sim"
)

// joinAlloc is a hybrid hash join's memory grant: the buffer pages, the
// spilled partition count, the hash-space share of the in-memory partition,
// and the temp-extent chunk size.
type joinAlloc struct {
	memPages   int
	nParts     int     // spilled partitions (0 = fully in-memory)
	frac0      float64 // hash-space share of the in-memory partition
	chunkPages int     // extent chunk per spilled partition
}

func (e *engine) joinAllocFor(innerPages, outerPages int) joinAlloc {
	var al joinAlloc
	fn := e.cfg.Params.FudgeF * float64(innerPages)
	if e.cfg.Params.MaxAlloc {
		al.memPages = int(math.Ceil(fn)) + 1
		al.nParts = 0
		al.frac0 = 1
		return al
	}
	al.memPages = int(math.Ceil(math.Sqrt(fn)))
	if al.memPages < 2 {
		al.memPages = 2
	}
	b := int(math.Ceil((fn - float64(al.memPages)) / float64(al.memPages-1)))
	if b < 0 {
		b = 0
	}
	al.nParts = b
	if b > 0 {
		p0 := al.memPages - b
		if p0 < 0 {
			p0 = 0
		}
		al.frac0 = float64(p0) / fn
		bigger := innerPages
		if outerPages > bigger {
			bigger = outerPages
		}
		al.chunkPages = int(math.Ceil(e.cfg.Params.FudgeF*float64(bigger)/float64(b))) + 2
	} else {
		al.frac0 = 1
	}
	return al
}

// route picks the partition for a hash value: 0 is the in-memory partition.
func (al joinAlloc) route(h uint64) int {
	if al.nParts == 0 {
		return 0
	}
	// Use high bits for the memory/spill split and low bits for the spilled
	// partition number, keeping the two decisions independent.
	if float64(h>>40)/float64(1<<24) < al.frac0 {
		return 0
	}
	return 1 + int(h%uint64(al.nParts))
}

// partition is one spilled partition: its rows in page-sized batches from
// the engine pool, paged into the join site's temp region. Each partition
// writes into its own contiguous extent (allocated in chunks), so reading a
// partition back is sequential while concurrent partition writes force arm
// movement — the access pattern of a real hybrid hash join.
//
// A page holds only the columns its pass reads (cols): the build side's for
// an inner partition, every other column for an outer one. Pool batches keep
// full width, so the remaining columns hold stale values; the read-back pass
// never reads them (the keyer's slots and the merged emit both stay inside
// cols).
type partition struct {
	pages []*colBatch // sealed pages in write order; nil once read back
	addrs []diskAddr  // temp page of each sealed page
	cur   *colBatch   // page being filled; nil when empty
	cols  []int       // columns copied into the pages

	w, tpp int
	chunk  int      // extent chunk size, pages
	next   diskAddr // next free page of the current chunk
	left   int      // pages remaining in the current chunk
}

// newPartition pre-sizes the page lists to one extent chunk, the join's
// estimate of a partition's page count; like hashTable.reserve, the hint
// moves memory only.
func newPartition(cols []int, w, tpp, chunk int) *partition {
	return &partition{cols: cols, w: w, tpp: tpp, chunk: chunk,
		pages: make([]*colBatch, 0, chunk), addrs: make([]diskAddr, 0, chunk)}
}

// addRow copies row i of src onto the page being filled, sealing it at tpp
// rows.
func (pt *partition) addRow(e *engine, p *sim.Proc, s *site, acc *chargeAcc, src [][]int64, i int) {
	b := pt.cur
	if b == nil {
		b = e.pool.get(pt.w, pt.tpp)
		pt.cur = b
	}
	for _, c := range pt.cols {
		b.data[c*b.stride+b.n] = src[c][i]
	}
	b.n++
	if b.n == pt.tpp {
		pt.complete(e, p, s, acc)
	}
}

// complete seals the page being filled into the next temp page and writes
// it: one DiskInst charge, then the disk write. The pending charges land
// first — both the chunk allocation from the site's shared temp region and
// the write are visible to the other processes of the site.
func (pt *partition) complete(e *engine, p *sim.Proc, s *site, acc *chargeAcc) {
	if pt.cur == nil {
		return
	}
	acc.flush(p)
	if pt.left == 0 {
		pt.next = s.allocTemp(pt.chunk)
		pt.left = pt.chunk
	}
	pt.pages = append(pt.pages, pt.cur)
	pt.cur = nil
	pt.addrs = append(pt.addrs, pt.next)
	addr := pt.next
	pt.next = pt.next.plus(1)
	pt.left--
	s.chargeCPU(p, e.cfg.Params, e.cfg.Params.DiskInst)
	s.write(p, addr)
}

// release returns every page the partition still holds to the pool.
func (pt *partition) release(bp *batchPool) {
	for _, b := range pt.pages {
		bp.put(b)
	}
	bp.put(pt.cur)
}

// hashJoin is a hybrid hash join (Shapiro 1986), the only join method of
// the study (§3.2.2). The inner (left) input is the build side.
//
// With the maximum allocation (BufAlloc = max) the whole build-side hash
// table is memory resident. With the minimum allocation M = ⌈√(F·N)⌉ pages,
// both inputs are split into B = ⌈(F·N − M)/(M − 1)⌉ partitions; partition 0
// is processed in memory on the fly with the remaining M − B buffer pages,
// while the other partitions are written to the join site's temporary disk
// region and processed pairwise afterwards. Partition pages are allocated
// lazily from the site's temp region, so concurrent partition streams
// interleave on disk — the "additional, random load" of §4.2.2.
//
// The join consumes and emits page-sized batches, builds into a hashTable,
// and probes column-wise with scratch selection/candidate vectors — zero
// allocations in the probe-emit path once warm.
type hashJoin struct {
	e      *engine
	atSite *site
	inner  iterator
	outer  iterator
	bkey   *keyer
	pkey   *keyer
	acc    *chargeAcc
	tpp    int
	w      int
	// allocation (computed from catalog estimates, like a real system
	// granting the optimizer's memory request)
	al joinAlloc

	// buildCols are the build side's columns, in the table's column order;
	// probeCols are all the others. A column is non-absent in a subtree's
	// output exactly when its relation is one of the subtree's base tables
	// (scans set only their own slot; joins merge disjoint sides), so
	// merge(build, probe) takes buildCols from the table and probeCols from
	// the probe row, never re-checking absent per value. Column i is the slot
	// of Relations[i], whose mask bit is i.
	buildCols, probeCols []int

	table      *hashTable
	innerParts []*partition
	outerParts []*partition

	phase    int // 0 = probing outer, 1 = spilled partition passes, 2 = done
	partIdx  int
	partPage int

	cur     *colBatch
	curCols [][]int64 // resolved columns of cur
	rdy     batchRing

	build, probe pageKeys // reused per-page scratch of each side
	estBuild     int      // optimizer's estimate of in-memory build rows
	outCount     int64
}

// pageKeys is one join side's scratch for the page in hand: its resolved
// columns, key slot columns, evaluated key values (Next applied) and
// per-row composite key hashes.
type pageKeys struct {
	cols, kcols, keyv [][]int64
	hash              []uint64
}

// load evaluates k's keys and hashes for every row of b. Key extraction is
// pure, so when it runs is unobservable; only the HashInst charges are.
func (pk *pageKeys) load(k *keyer, b *colBatch) {
	pk.cols = batchCols(b, pk.cols)
	pk.kcols = k.slotCols(pk.cols, pk.kcols)
	pk.keyv = k.evalCols(pk.kcols, b.n, pk.keyv)
	pk.hash = hashKeyCols(pk.keyv, b.n, pk.hash)
}

func (e *engine) newHashJoin(at catalog.SiteID, inner, outer iterator,
	innerTables, outerTables uint64, innerPages, outerPages int, acc *chargeAcc) *hashJoin {
	j := &hashJoin{
		e:      e,
		atSite: e.site(at),
		inner:  inner,
		outer:  outer,
		bkey:   newKeyer(e.cfg.Query, innerTables, outerTables, e.cfg.Next),
		pkey:   newKeyer(e.cfg.Query, outerTables, innerTables, e.cfg.Next),
		acc:    acc,
		tpp:    tuplesPerPage(e.cfg.Params.PageSize, e.cfg.Query.ResultTupleBytes),
		w:      len(e.cfg.Query.Relations),
		al:     e.joinAllocFor(innerPages, outerPages),
	}
	j.estBuild = int(float64(innerPages) * j.al.frac0 * float64(j.tpp))
	for c := 0; c < j.w; c++ {
		if innerTables&(1<<uint(c)) != 0 {
			j.buildCols = append(j.buildCols, c)
		} else {
			j.probeCols = append(j.probeCols, c)
		}
	}
	return j
}

func (j *hashJoin) open(p *sim.Proc) {
	pr := &j.e.cfg.Params
	// Open both inputs up front: a remote outer fragment starts producing
	// into its one-page lookahead immediately, giving the independent
	// parallelism between subtrees described in §3.1.2.
	j.inner.open(p)
	j.outer.open(p)

	j.table = j.e.pool.getTable(len(j.buildCols), len(j.bkey.slots))
	j.table.reserve(j.estBuild)
	for i := 0; i < j.al.nParts; i++ {
		j.innerParts = append(j.innerParts, newPartition(j.buildCols, j.w, j.tpp, j.al.chunkPages))
		j.outerParts = append(j.outerParts, newPartition(j.probeCols, j.w, j.tpp, j.al.chunkPages))
	}

	// Build phase: consume the inner completely.
	bk := &j.build
	for {
		b, ok := j.inner.next(p)
		if !ok {
			break
		}
		j.acc.add(p, j.atSite, pr, pr.HashInst*float64(b.n))
		bk.load(j.bkey, b)
		for i := 0; i < b.n; i++ {
			h := bk.hash[i]
			if part := j.al.route(h); part == 0 {
				j.insertRow(bk.cols, bk.keyv, i, h)
			} else {
				j.innerParts[part-1].addRow(j.e, p, j.atSite, j.acc, bk.cols, i)
			}
		}
		j.e.pool.put(b)
	}
	for _, pt := range j.innerParts {
		pt.complete(j.e, p, j.atSite, j.acc) // seal the partial last page
	}
	j.phase = 0
}

// insertRow copies row i's build-side columns and pre-evaluated key values
// into the build table under hash h.
func (j *hashJoin) insertRow(cols, keyv [][]int64, i int, h uint64) {
	t := j.table
	t.insert(h)
	for k, c := range j.buildCols {
		t.cols[k] = append(t.cols[k], cols[c][i])
	}
	for s := range t.keys {
		t.keys[s] = append(t.keys[s], keyv[s][i])
	}
}

// probeRow matches row i of the probe columns against the table with the
// probe's charge schedule: CompareInst per candidate first, then MoveInst
// per match. The candidate walk, key comparison, and emit are fused into
// one chain traversal; only the resulting charge parts are appended, in
// that order, after the (pure) traversal.
func (j *hashJoin) probeRow(p *sim.Proc, cols, keyv [][]int64, i int, h uint64) {
	t := j.table
	var cands, matched int
	if len(t.keys) == 1 {
		k0, pv0 := t.keys[0], keyv[0][i]
		for e := t.head[h&t.mask]; e >= 0; e = t.next[e] {
			if t.hashes[e] != h {
				continue
			}
			cands++
			if k0[e] == pv0 {
				j.emitMerged(e, cols, i)
				matched++
			}
		}
	} else {
		for e := t.head[h&t.mask]; e >= 0; e = t.next[e] {
			if t.hashes[e] != h {
				continue
			}
			cands++
			eq := true
			for s := range t.keys {
				if t.keys[s][e] != keyv[s][i] {
					eq = false
					break
				}
			}
			if eq {
				j.emitMerged(e, cols, i)
				matched++
			}
		}
	}
	if cands == 0 {
		return
	}
	pr := &j.e.cfg.Params
	j.acc.add(p, j.atSite, pr, pr.CompareInst*float64(cands))
	if matched > 0 {
		j.acc.add(p, j.atSite, pr,
			pr.MoveInst*float64(j.e.cfg.Query.ResultTupleBytes)/4*float64(matched))
		j.outCount += int64(matched)
	}
}

// emitMerged appends merge(build entry e, probe row i) to the output page
// under construction, completing pages at exactly tpp rows.
func (j *hashJoin) emitMerged(e int32, cols [][]int64, i int) {
	if j.cur == nil {
		j.cur = j.e.pool.get(j.w, j.tpp)
		j.curCols = batchCols(j.cur, j.curCols)
	}
	cur := j.cur
	at := cur.n
	for k, c := range j.buildCols {
		j.curCols[c][at] = j.table.cols[k][e]
	}
	for _, c := range j.probeCols {
		j.curCols[c][at] = cols[c][i]
	}
	cur.n++
	if cur.n == j.tpp {
		j.rdy.push(cur)
		j.cur = nil
	}
}

// readSpillPage reads spilled page i of pt back from temp disk (one
// DiskInst charge, then the read) and takes it out of the partition: the
// caller returns it to the pool once its rows are used.
func (j *hashJoin) readSpillPage(p *sim.Proc, pt *partition, i int) *colBatch {
	b := pt.pages[i]
	pt.pages[i] = nil
	j.acc.flush(p)
	j.atSite.chargeCPU(p, j.e.cfg.Params, j.e.cfg.Params.DiskInst)
	j.atSite.read(p, pt.addrs[i])
	return b
}

func (j *hashJoin) next(p *sim.Proc) (*colBatch, bool) {
	pr := &j.e.cfg.Params
	bk, pk := &j.build, &j.probe
	// Run the probe pipeline only while no completed output page is queued:
	// a join produces its next page on demand.
	for j.rdy.empty() && j.phase < 2 {
		switch j.phase {
		case 0:
			b, ok := j.outer.next(p)
			if !ok {
				for _, pt := range j.outerParts {
					pt.complete(j.e, p, j.atSite, j.acc)
				}
				j.phase = 1
				j.partIdx = -1
				j.partPage = 0
				continue
			}
			j.acc.add(p, j.atSite, pr, pr.HashInst*float64(b.n))
			pk.load(j.pkey, b)
			for i := 0; i < b.n; i++ {
				h := pk.hash[i]
				if part := j.al.route(h); part == 0 {
					j.probeRow(p, pk.cols, pk.keyv, i, h)
				} else {
					j.outerParts[part-1].addRow(j.e, p, j.atSite, j.acc, pk.cols, i)
				}
			}
			j.e.pool.put(b)
		case 1:
			if j.partIdx < 0 || j.partPage >= len(j.outerParts[j.partIdx].pages) {
				// Advance to the next spilled partition pair: rebuild the
				// table from the inner partition read back from temp disk.
				j.partIdx++
				j.partPage = 0
				if j.partIdx >= j.al.nParts {
					j.phase = 2
					continue
				}
				j.table.reset()
				in := j.innerParts[j.partIdx]
				for pi := range in.pages {
					b := j.readSpillPage(p, in, pi)
					j.acc.add(p, j.atSite, pr, pr.HashInst*float64(b.n))
					bk.load(j.bkey, b)
					for r := 0; r < b.n; r++ {
						j.insertRow(bk.cols, bk.keyv, r, bk.hash[r])
					}
					j.e.pool.put(b)
				}
				continue
			}
			b := j.readSpillPage(p, j.outerParts[j.partIdx], j.partPage)
			j.partPage++
			j.acc.add(p, j.atSite, pr, pr.HashInst*float64(b.n))
			pk.load(j.pkey, b)
			for r := 0; r < b.n; r++ {
				j.probeRow(p, pk.cols, pk.keyv, r, pk.hash[r])
			}
			j.e.pool.put(b)
		}
	}
	if !j.rdy.empty() {
		return j.rdy.pop(), true
	}
	if j.cur != nil && j.cur.n > 0 {
		b := j.cur
		j.cur = nil
		return b, true
	}
	return nil, false
}

func (j *hashJoin) close(p *sim.Proc) {
	j.inner.close(p)
	j.outer.close(p)
	j.e.pool.putTable(j.table)
	j.table = nil
	for _, pt := range j.innerParts {
		pt.release(&j.e.pool)
	}
	for _, pt := range j.outerParts {
		pt.release(&j.e.pool)
	}
	j.innerParts = nil
	j.outerParts = nil
	j.rdy.drainTo(&j.e.pool)
	j.e.pool.put(j.cur)
	j.cur = nil
}
