package exec

import (
	"math/bits"

	"hybridship/internal/sim"
)

// This file is the engine's data plane: columnar batches, the engine-wide
// batch pool, and the charge accumulator that coalesces per-page CPU
// charges into one sim.Resource.UseRun per batch run. The operators live in
// ops.go and join.go, the build-side hash table in hash.go.
//
// The engine is calibrated against the paper's page-at-a-time iterator
// model: every CPU charge, disk request and message happens at the virtual
// time, and in the order relative to every other process, that a
// page-at-a-time engine charging each amount directly would produce. The
// goldens in testdata/engine_golden.json pin that schedule event for event.
// Three rules keep it true:
//
//  1. A batch carries exactly one page's tuples. Page boundaries decide
//     charge amounts (CompareInst×tuples-per-page, one message per page, …),
//     so the flow quantum must stay the page; the batch changes the
//     representation of a page (one flat []int64), never its size.
//  2. Charge parts are the per-page charges, amount for amount and in the
//     same order. Only their kernel realization is coalesced, and only
//     through UseRun, whose quiet-window path is proven bit-equivalent to
//     the per-part sequence (see sim.Resource.UseRun).
//  3. The accumulator is flushed before every operation another process can
//     observe — disk I/O, network transmit, buffer put/get, spawn, any
//     direct chargeCPU, and taking a chunk from a site's shared temp region
//     (site.allocTemp) — so each of them happens at the same virtual time,
//     and in the same order against every other process, as when the
//     charges are paid one by one.

// colBatch is one page of tuples in columnar form: column c of a
// w-column batch occupies data[c*stride : c*stride+n]. A batch is as wide as
// the relation count of the operator that produced it: row i's tuple is one
// row id per relation of the producing subtree, and column k holds the
// relation whose mask bit is the subtree mask's k-th set bit, in ascending
// order (slotCol). A scan's page has one column; the root's page carries
// every relation of the query.
type colBatch struct {
	data   []int64
	w      int // columns (tuple width)
	n      int // rows in use
	stride int // rows of capacity per column
}

// slotCol returns the column that holds relation bit rel in a page of
// subtree mask: the rank of rel among mask's set bits.
func slotCol(mask, rel uint64) int {
	return bits.OnesCount64(mask & (rel - 1))
}

// tuplesPerPage reports how many tuples of the given width fit on a page.
func tuplesPerPage(pageSize, tupleBytes int) int {
	n := pageSize / tupleBytes
	if n < 1 {
		n = 1
	}
	return n
}

// col returns column c, sized to the batch's row capacity.
func (b *colBatch) col(c int) []int64 {
	return b.data[c*b.stride : c*b.stride+b.stride]
}

// batchCols resolves every column of b into dst (a reused scratch slice).
func batchCols(b *colBatch, dst [][]int64) [][]int64 {
	dst = dst[:0]
	for c := 0; c < b.w; c++ {
		dst = append(dst, b.col(c))
	}
	return dst
}

// batchPool recycles the engine's backing storage across batches,
// operators, and queries. The kernel runs one process at a time, so plain
// free lists suffice; nothing here ever touches the event schedule (which a
// sim.Buffer-based pool would). Batches are free-listed by width, so a page
// of one subtree's width takes a batch that last held a page of that width.
type batchPool struct {
	batches [][]*colBatch // per width: the free batches of that width
	tables  []*hashTable

	// newBatches and newTables count the batches and tables the pool has
	// ever created; once every owner has released its storage, the free
	// lists hold exactly that many.
	newBatches, newTables int
}

// get returns a batch with w columns and room for rows rows, n = 0.
func (bp *batchPool) get(w, rows int) *colBatch {
	var b *colBatch
	if w < len(bp.batches) && len(bp.batches[w]) > 0 {
		free := bp.batches[w]
		b = free[len(free)-1]
		bp.batches[w] = free[:len(free)-1]
	} else {
		b = &colBatch{}
		bp.newBatches++
	}
	if need := w * rows; cap(b.data) < need {
		b.data = make([]int64, need)
	}
	b.data = b.data[:w*rows]
	b.w, b.n, b.stride = w, 0, rows
	return b
}

// put recycles a batch. Ownership transfers with the batch: an operator that
// received a batch from its child either releases it here or hands it on.
func (bp *batchPool) put(b *colBatch) {
	if b == nil {
		return
	}
	for len(bp.batches) <= b.w {
		bp.batches = append(bp.batches, nil)
	}
	bp.batches[b.w] = append(bp.batches[b.w], b)
}

func (bp *batchPool) getTable(w, kw int) *hashTable {
	if n := len(bp.tables); n > 0 {
		t := bp.tables[n-1]
		bp.tables = bp.tables[:n-1]
		t.reshape(w, kw)
		return t
	}
	bp.newTables++
	return newHashTable(w, kw)
}

func (bp *batchPool) putTable(t *hashTable) {
	if t != nil {
		bp.tables = append(bp.tables, t)
	}
}

// chargeAcc accumulates the CPU charges one process incurs between two
// kernel-visible operations and realizes them as a single
// sim.Resource.UseRun. Each process that runs operators owns exactly one:
// the query's main process, and every network-pair producer daemon.
type chargeAcc struct {
	site  *site
	parts []sim.Time
}

// add queues one chargeCPU(instr). Amounts and order must equal the
// page-at-a-time charge sequence exactly; instr <= 0 is skipped just as
// chargeCPU skips it. pr is a pointer because add sits on per-row paths
// where copying Params would dominate.
func (a *chargeAcc) add(p *sim.Proc, s *site, pr *Params, instr float64) {
	if instr <= 0 {
		return
	}
	if a.site != s {
		a.flush(p)
		a.site = s
	}
	a.parts = append(a.parts, sim.Time(pr.CPUTime(instr)))
}

// addRun queues a run of charge parts computed ahead, in order, each
// already sim.Time(pr.CPUTime(instr)) of a positive instr: a page kernel's
// per-row charges between two of its kernel-visible operations.
func (a *chargeAcc) addRun(p *sim.Proc, s *site, parts []sim.Time) {
	if len(parts) == 0 {
		return
	}
	if a.site != s {
		a.flush(p)
		a.site = s
	}
	a.parts = append(a.parts, parts...)
}

// flush realizes the pending charges. Callers invoke it immediately before
// any kernel-visible operation, and at the end of the query.
func (a *chargeAcc) flush(p *sim.Proc) {
	if len(a.parts) == 0 {
		return
	}
	a.site.cpu.UseRun(p, a.parts)
	a.parts = a.parts[:0]
}

// batchRing is a FIFO of ready output batches (an operator can complete
// several pages from one input batch; they are handed out one per next
// call).
type batchRing struct {
	q    []*colBatch
	head int
}

func (r *batchRing) empty() bool { return r.head >= len(r.q) }

func (r *batchRing) push(b *colBatch) { r.q = append(r.q, b) }

func (r *batchRing) pop() *colBatch {
	b := r.q[r.head]
	r.q[r.head] = nil
	r.head++
	if r.head == len(r.q) {
		r.q = r.q[:0]
		r.head = 0
	}
	return b
}

// drainTo releases every queued batch back to the pool (abandoned output on
// operator close).
func (r *batchRing) drainTo(bp *batchPool) {
	for !r.empty() {
		bp.put(r.pop())
	}
}
