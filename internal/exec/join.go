package exec

import (
	"math"
	"math/bits"

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
	memCut     uint64  // ⌈frac0·2²⁴⌉: 24-bit hash prefixes below it stay in memory
	chunkPages int     // extent chunk per spilled partition
}

// setShare sets the in-memory partition's hash-space share frac0 and the
// prefix cut route tests against.
func (al *joinAlloc) setShare(frac0 float64) {
	al.frac0 = frac0
	al.memCut = uint64(math.Ceil(frac0 * (1 << 24)))
}

func (e *engine) joinAllocFor(innerPages, outerPages int) joinAlloc {
	var al joinAlloc
	fn := e.cfg.Params.FudgeF * float64(innerPages)
	if e.cfg.Params.MaxAlloc {
		al.memPages = int(math.Ceil(fn)) + 1
		al.nParts = 0
		al.setShare(1)
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
		al.setShare(float64(p0) / fn)
		bigger := innerPages
		if outerPages > bigger {
			bigger = outerPages
		}
		al.chunkPages = int(math.Ceil(e.cfg.Params.FudgeF*float64(bigger)/float64(b))) + 2
	} else {
		al.setShare(1)
	}
	return al
}

// route picks the partition for a hash value: 0 is the in-memory partition.
func (al joinAlloc) route(h uint64) int {
	if al.nParts == 0 {
		return 0
	}
	// Use high bits for the memory/spill split and low bits for the spilled
	// partition number, keeping the two decisions independent. The prefix
	// x = h>>40 is below memCut exactly when x/2²⁴ < frac0: both sides
	// scale by a power of two without rounding, and an integer is below a
	// real exactly when it is below the real's ceiling.
	if h>>40 < al.memCut {
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
// A page has the width of the join side's input pages and the same column
// layout, so the read-back pass handles it as it would an input page.
type partition struct {
	pages []*colBatch // sealed pages in write order; nil once read back
	addrs []diskAddr  // temp page of each sealed page
	cur   *colBatch   // page being filled; nil when empty

	tpp   int
	chunk int      // extent chunk size, pages
	next  diskAddr // next free page of the current chunk
	left  int      // pages remaining in the current chunk
}

// newPartition pre-sizes the page lists to one extent chunk, the join's
// estimate of a partition's page count; like hashTable.reserve, the hint
// moves memory only.
func newPartition(tpp, chunk int) *partition {
	return &partition{tpp: tpp, chunk: chunk,
		pages: make([]*colBatch, 0, chunk), addrs: make([]diskAddr, 0, chunk)}
}

// fill copies rows (in row order) of src, an input page's columns, onto the
// partition's pages, a column at a time. A page that reaches tpp rows is
// detached unsealed and appended to seals with the input row that filled
// it: sealing is kernel-visible, so the caller seals in input-row order,
// behind the charges of the rows before it.
func (pt *partition) fill(bp *batchPool, src [][]int64, rows []int32, seals []sealEvent) []sealEvent {
	for len(rows) > 0 {
		b := pt.cur
		if b == nil {
			b = bp.get(len(src), pt.tpp)
			pt.cur = b
		}
		k := min(pt.tpp-b.n, len(rows))
		for c, s := range src {
			dst := b.data[c*b.stride+b.n : c*b.stride+b.n+k]
			for x, r := range rows[:k] {
				dst[x] = s[r]
			}
		}
		b.n += k
		if b.n == pt.tpp {
			seals = append(seals, sealEvent{row: rows[k-1], pt: pt, b: b})
			pt.cur = nil
		}
		rows = rows[k:]
	}
	return seals
}

// complete seals the partially filled page, if any (a partition's last).
func (pt *partition) complete(e *engine, p *sim.Proc, s *site, acc *chargeAcc) {
	if b := pt.cur; b != nil {
		pt.cur = nil
		pt.seal(e, p, s, acc, b)
	}
}

// seal writes page b into the partition's next temp page: one DiskInst
// charge, then the disk write. The pending charges land first — both the
// chunk allocation from the site's shared temp region and the write are
// visible to the other processes of the site.
func (pt *partition) seal(e *engine, p *sim.Proc, s *site, acc *chargeAcc, b *colBatch) {
	acc.flush(p)
	if pt.left == 0 {
		pt.next = s.allocTemp(pt.chunk)
		pt.left = pt.chunk
	}
	pt.pages = append(pt.pages, b)
	pt.addrs = append(pt.addrs, pt.next)
	addr := pt.next
	pt.next = pt.next.plus(1)
	pt.left--
	s.chargeCPU(p, e.cfg.Params, e.cfg.Params.DiskInst)
	s.write(p, addr)
}

// sealEvent is a spill page that filled at input row row and waits for its
// seal.
type sealEvent struct {
	row int32
	pt  *partition
	b   *colBatch
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
// The join consumes and emits page-sized batches. Each input page goes
// through one page kernel (buildPage, probePage) in two phases: a pure phase
// that routes the page's rows, walks the bucket chains and copies columns a
// column at a time into the table, the output pages and the partition
// pages; then an ordered phase that replays the page's charges in row order
// and seals each filled partition page at the row that filled it, so every
// flush, temp-chunk allocation and disk write lands where a row-at-a-time
// loop puts it. The kernels allocate nothing once their scratch is warm.
type hashJoin struct {
	e      *engine
	atSite *site
	inner  iterator
	outer  iterator
	bkey   *keyer
	pkey   *keyer
	acc    *chargeAcc
	tpp    int
	w      int // output width: the relation count of inner and outer
	// allocation (computed from catalog estimates, like a real system
	// granting the optimizer's memory request)
	al joinAlloc

	// buildOut[k] and probeOut[k] are the output columns of column k of a
	// build and of a probe page: the rank of its relation's mask bit in
	// inner|outer. The two sides' relations are disjoint, so an output row
	// is merge(build entry, probe row), every column written once.
	buildOut, probeOut []int

	// moveTuple is MoveInst·ResultTupleBytes/4, the instructions to move one
	// result tuple. Evaluated left to right, moveTuple·matches has the bits of
	// MoveInst·ResultTupleBytes/4·matches.
	moveTuple float64
	// cmpPart[n] and movePart[n] are the charge parts of n candidates and of
	// n matches, for the small counts almost every probed row has.
	cmpPart, movePart [8]sim.Time

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
	ks           kernelScratch
	estBuild     int // optimizer's estimate of in-memory build rows
	outCount     int64
}

// pageKeys is one join side's scratch for the page in hand: its resolved
// columns, key columns, evaluated key values (Next applied) and
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

// kernelScratch is the page kernels' reused per-page state.
type kernelScratch struct {
	mem   []int32 // rows of the in-memory partition, in row order: memBuf or all
	spill []int32 // rows of spilled partitions, grouped by partition, row order within
	part  []int32 // per row: its partition, 0 = in memory
	cnt   []int32 // per partition: row count, then start offset in spill
	seals []sealEvent

	memBuf []int32 // mem's storage on a spilling page
	all    []int32 // 0, 1, 2, …: mem on a page that spills nothing

	heads      []int32    // per probed row: its bucket's first entry
	mrow, ment []int32    // matches in emit order: probe row, build entry
	parts      []sim.Time // probe charge parts, in row order
	pend       []int32    // parts queued by the first k probed rows, k = 0..len(mem)
}

func (e *engine) newHashJoin(at catalog.SiteID, inner, outer iterator,
	innerTables, outerTables uint64, innerPages, outerPages int, acc *chargeAcc) *hashJoin {
	pr := &e.cfg.Params
	j := &hashJoin{
		e:         e,
		atSite:    e.site(at),
		inner:     inner,
		outer:     outer,
		bkey:      newKeyer(e.cfg.Query, innerTables, outerTables, e.cfg.Next),
		pkey:      newKeyer(e.cfg.Query, outerTables, innerTables, e.cfg.Next),
		acc:       acc,
		tpp:       tuplesPerPage(pr.PageSize, e.cfg.Query.ResultTupleBytes),
		al:        e.joinAllocFor(innerPages, outerPages),
		moveTuple: pr.MoveInst * float64(e.cfg.Query.ResultTupleBytes) / 4,
	}
	for n := range len(j.cmpPart) {
		j.cmpPart[n] = sim.Time(pr.CPUTime(pr.CompareInst * float64(n)))
		j.movePart[n] = sim.Time(pr.CPUTime(j.moveTuple * float64(n)))
	}
	j.estBuild = int(float64(innerPages) * j.al.frac0 * float64(j.tpp))
	j.buildOut = outCols(innerTables, innerTables|outerTables)
	j.probeOut = outCols(outerTables, innerTables|outerTables)
	j.w = bits.OnesCount64(innerTables | outerTables)
	return j
}

// outCols maps the columns of a side's pages (side's mask bits, ascending)
// to their columns in a page of mask out ⊇ side.
func outCols(side, out uint64) []int {
	cols := make([]int, 0, bits.OnesCount64(side))
	for m := side; m != 0; m &= m - 1 {
		cols = append(cols, slotCol(out, m&-m))
	}
	return cols
}

func (j *hashJoin) open(p *sim.Proc) {
	// Open both inputs up front: a remote outer fragment starts producing
	// into its one-page lookahead immediately, giving the independent
	// parallelism between subtrees described in §3.1.2.
	j.inner.open(p)
	j.outer.open(p)

	j.table = j.e.pool.getTable(len(j.buildOut), len(j.bkey.slots))
	j.table.reserve(j.estBuild)
	for i := 0; i < j.al.nParts; i++ {
		j.innerParts = append(j.innerParts, newPartition(j.tpp, j.al.chunkPages))
		j.outerParts = append(j.outerParts, newPartition(j.tpp, j.al.chunkPages))
	}

	// Build phase: consume the inner completely.
	for {
		b, ok := j.inner.next(p)
		if !ok {
			break
		}
		j.buildPage(p, b, j.innerParts)
		j.e.pool.put(b)
	}
	for _, pt := range j.innerParts {
		pt.complete(j.e, p, j.atSite, j.acc) // seal the partial last page
	}
	j.phase = 0
}

// route splits the page's rows [0,n) between the in-memory partition
// (ks.mem) and the spilled partitions parts (ks.spill, grouped by partition,
// each group in row order). With no spilled partitions every row stays in
// memory, and ks.mem is a prefix of the identity selection ks.all, kept
// apart from the spilling pages' ks.memBuf.
func (j *hashJoin) route(hash []uint64, n int, parts []*partition) {
	ks := &j.ks
	if len(parts) == 0 {
		for i := len(ks.all); i < n; i++ {
			ks.all = append(ks.all, int32(i))
		}
		ks.mem = ks.all[:n]
		return
	}
	ks.mem = ks.memBuf[:0]
	ks.part = ks.part[:0]
	ks.cnt = ks.cnt[:0]
	for range len(parts) + 1 {
		ks.cnt = append(ks.cnt, 0)
	}
	for i, h := range hash[:n] {
		r := int32(j.al.route(h))
		ks.part = append(ks.part, r)
		ks.cnt[r]++
		if r == 0 {
			ks.mem = append(ks.mem, int32(i))
		}
	}
	ks.memBuf = ks.mem
	// Counting sort of the spilled rows by partition, stable in row order.
	off := int32(0)
	for r := 1; r < len(ks.cnt); r++ {
		c := ks.cnt[r]
		ks.cnt[r] = off
		off += c
	}
	if cap(ks.spill) < int(off) {
		ks.spill = make([]int32, off)
	}
	ks.spill = ks.spill[:off]
	for i, r := range ks.part {
		if r != 0 {
			ks.spill[ks.cnt[r]] = int32(i)
			ks.cnt[r]++
		}
	}
}

// spill copies the page's spilled rows onto their partitions' pages and
// returns the pages that filled, ordered by the input row that filled them.
// Nothing is sealed yet.
func (j *hashJoin) spill(cols [][]int64, parts []*partition) []sealEvent {
	if len(parts) == 0 {
		return nil
	}
	ks := &j.ks
	ks.seals = ks.seals[:0]
	start := int32(0)
	for r, pt := range parts {
		end := ks.cnt[r+1] // the counting sort left each group's end here
		if end > start {
			ks.seals = pt.fill(&j.e.pool, cols, ks.spill[start:end], ks.seals)
		}
		start = end
	}
	// Few pages fill per input page: an insertion sort by row.
	s := ks.seals
	for i := 1; i < len(s); i++ {
		for k := i; k > 0 && s[k].row < s[k-1].row; k-- {
			s[k], s[k-1] = s[k-1], s[k]
		}
	}
	return s
}

// buildPage is the build kernel: it charges HashInst per row of input page
// b, inserts the in-memory partition's rows into the table and copies the
// others onto parts' pages (nil on a read-back pass, where every row goes
// into the table), sealing each page that fills in row order. No build row
// is charged individually, so the page's charges are all pending before its
// first seal.
func (j *hashJoin) buildPage(p *sim.Proc, b *colBatch, parts []*partition) {
	pr := &j.e.cfg.Params
	j.acc.add(p, j.atSite, pr, pr.HashInst*float64(b.n))
	bk := &j.build
	bk.load(j.bkey, b)
	j.route(bk.hash, b.n, parts)
	j.table.insertRows(j.ks.mem, b.n, bk.hash, bk.cols, bk.keyv)
	for _, ev := range j.spill(bk.cols, parts) {
		ev.pt.seal(j.e, p, j.atSite, j.acc, ev.b)
	}
}

// probePage is the probe kernel: it charges HashInst per row of input page
// b, probes the in-memory partition's rows against the table and copies the
// others onto parts' pages (nil on a read-back pass). The pure phase walks
// every probed row's chain into a match list and the row's charge parts —
// CompareInst × candidates, then MoveInst × matches — and emits the matches
// a column at a time. The ordered phase queues the parts in row order,
// stopping at each row that filled a partition page to seal it behind the
// charges of the rows before it.
func (j *hashJoin) probePage(p *sim.Proc, b *colBatch, parts []*partition) {
	pr := &j.e.cfg.Params
	j.acc.add(p, j.atSite, pr, pr.HashInst*float64(b.n))
	pk := &j.probe
	pk.load(j.pkey, b)
	j.route(pk.hash, b.n, parts)
	j.probeRows(pk.hash, pk.keyv)
	j.emit(pk.cols)
	ks := &j.ks
	done, m := int32(0), 0 // parts queued, probed rows before the sealing row
	for _, ev := range j.spill(pk.cols, parts) {
		for m < len(ks.mem) && ks.mem[m] < ev.row {
			m++
		}
		j.acc.addRun(p, j.atSite, ks.parts[done:ks.pend[m]])
		done = ks.pend[m]
		ev.pt.seal(j.e, p, j.atSite, j.acc, ev.b)
	}
	j.acc.addRun(p, j.atSite, ks.parts[done:])
}

// probeRows is the probe kernel's pure phase over the rows in ks.mem: their
// bucket heads first, then each chain walk. A candidate is an entry whose
// stored hash equals the row's, a match a candidate whose key vector equals
// it too; matches go to the match list in chain order. The row's charge
// parts follow the acc.add rules: none without candidates, and an amount
// of at most zero queues nothing.
func (j *hashJoin) probeRows(hash []uint64, keyv [][]int64) {
	t, ks, pr := j.table, &j.ks, &j.e.cfg.Params
	mem := ks.mem
	if cap(ks.heads) < len(mem) {
		ks.heads = make([]int32, len(mem))
	}
	heads := ks.heads[:len(mem)]
	for x, i := range mem {
		heads[x] = t.head[hash[i]&t.mask]
	}
	ks.mrow, ks.ment = ks.mrow[:0], ks.ment[:0]
	ks.parts = ks.parts[:0]
	ks.pend = append(ks.pend[:0], 0)
	for x, i := range mem {
		h, cands, m0 := hash[i], 0, len(ks.ment)
		if len(t.keys) == 1 {
			k0, pv0 := t.keys[0], keyv[0][i]
			for e := heads[x]; e >= 0; e = t.next[e] {
				if t.hashes[e] != h {
					continue
				}
				cands++
				if k0[e] == pv0 {
					ks.mrow = append(ks.mrow, i)
					ks.ment = append(ks.ment, e)
				}
			}
		} else {
			for e := heads[x]; e >= 0; e = t.next[e] {
				if t.hashes[e] != h {
					continue
				}
				cands++
				if t.keysEqual(e, keyv, int(i)) {
					ks.mrow = append(ks.mrow, i)
					ks.ment = append(ks.ment, e)
				}
			}
		}
		if cands > 0 {
			if pr.CompareInst > 0 {
				ks.parts = append(ks.parts, j.part(&j.cmpPart, pr.CompareInst, cands))
			}
			if matched := len(ks.ment) - m0; matched > 0 {
				if j.moveTuple > 0 {
					ks.parts = append(ks.parts, j.part(&j.movePart, j.moveTuple, matched))
				}
				j.outCount += int64(matched)
			}
		}
		ks.pend = append(ks.pend, int32(len(ks.parts)))
	}
}

// part is the charge part of n > 0 units of unit instructions, read from
// tab (unit's part table) when n is small. For n > 0 the amount unit·n is
// positive exactly when unit is, so the caller's unit > 0 test is
// acc.add's.
func (j *hashJoin) part(tab *[8]sim.Time, unit float64, n int) sim.Time {
	if n < len(tab) {
		return tab[n]
	}
	return sim.Time(j.e.cfg.Params.CPUTime(unit * float64(n)))
}

// emit appends merge(build entry, probe row) for every match of the page,
// in match order, onto the output pages a column at a time, completing
// pages at exactly tpp rows.
func (j *hashJoin) emit(cols [][]int64) {
	mrow, ment := j.ks.mrow, j.ks.ment
	for len(ment) > 0 {
		if j.cur == nil {
			j.cur = j.e.pool.get(j.w, j.tpp)
			j.curCols = batchCols(j.cur, j.curCols)
		}
		at := j.cur.n
		k := min(j.tpp-at, len(ment))
		for c, src := range j.table.cols {
			dst := j.curCols[j.buildOut[c]][at : at+k]
			for x, e := range ment[:k] {
				dst[x] = src[e]
			}
		}
		for c, src := range cols {
			dst := j.curCols[j.probeOut[c]][at : at+k]
			for x, r := range mrow[:k] {
				dst[x] = src[r]
			}
		}
		j.cur.n += k
		if j.cur.n == j.tpp {
			j.rdy.push(j.cur)
			j.cur = nil
		}
		mrow, ment = mrow[k:], ment[k:]
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
			j.probePage(p, b, j.outerParts)
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
					j.buildPage(p, b, nil)
					j.e.pool.put(b)
				}
				continue
			}
			b := j.readSpillPage(p, j.outerParts[j.partIdx], j.partPage)
			j.partPage++
			j.probePage(p, b, nil)
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
