package exec

import (
	"slices"

	"hybridship/internal/query"
)

// hashTable is the hash join's build-side table. Its candidate semantics are
// part of the calibrated schedule, because the candidate count is charged
// CPU (CompareInst × candidates) and the match order shapes every
// downstream page boundary: a probe's candidates are the entries whose full
// 64-bit hash equals the probe hash, in insertion order (the semantics of a
// map from exact hash value to an appended tuple list). Bucket chains are
// tail-appended, so walking a chain and filtering on the stored hash yields
// precisely that sequence.
//
// Storage is columnar and arena-like, and holds the build side's columns:
// entry e's build-side values are (cols[0][e], …, cols[w-1][e]), where
// cols[k] is column k of the build side's pages, and its precomputed join-key
// vector is (keys[0][e], …, keys[kw-1][e]). Key values are computed once at
// insert — unobservable, since key extraction is pure and only the
// comparisons are charged, which still happen per candidate at probe time.
type hashTable struct {
	head, tail []int32 // per bucket: first/last entry, -1 when empty
	mask       uint64
	hashes     []uint64
	next       []int32   // per entry: next in bucket chain, -1 at tail
	cols       [][]int64 // w build-side columns
	keys       [][]int64 // kw key-value columns
}

const hashTableMinBuckets = 1 << 10

func newHashTable(w, kw int) *hashTable {
	t := &hashTable{cols: make([][]int64, w), keys: make([][]int64, kw)}
	t.rehash(hashTableMinBuckets)
	return t
}

// reshape readies a pooled table for a join with the given widths, keeping
// whatever backing arrays fit.
func (t *hashTable) reshape(w, kw int) {
	t.cols = reshapeCols(t.cols, w)
	t.keys = reshapeCols(t.keys, kw)
	t.hashes = t.hashes[:0]
	t.next = t.next[:0]
	t.rehash(len(t.head))
}

func reshapeCols(cols [][]int64, w int) [][]int64 {
	for len(cols) < w {
		cols = append(cols, nil)
	}
	cols = cols[:w]
	for c := range cols {
		cols[c] = cols[c][:0]
	}
	return cols
}

// reset clears the table for the next partition pass, keeping all storage.
func (t *hashTable) reset() {
	t.hashes = t.hashes[:0]
	t.next = t.next[:0]
	t.cols = reshapeCols(t.cols, len(t.cols))
	t.keys = reshapeCols(t.keys, len(t.keys))
	for i := range t.head {
		t.head[i] = -1
	}
}

// rehash sizes the bucket array and relinks every entry in insertion order.
func (t *hashTable) rehash(buckets int) {
	if buckets < hashTableMinBuckets {
		buckets = hashTableMinBuckets
	}
	if cap(t.head) >= buckets {
		t.head = t.head[:buckets]
		t.tail = t.tail[:buckets]
	} else {
		t.head = make([]int32, buckets)
		t.tail = make([]int32, buckets)
	}
	t.mask = uint64(buckets - 1)
	for i := range t.head {
		t.head[i] = -1
	}
	for e := range t.hashes {
		t.link(int32(e))
	}
}

func (t *hashTable) link(e int32) {
	b := t.hashes[e] & t.mask
	if t.head[b] < 0 {
		t.head[b] = e
	} else {
		t.next[t.tail[b]] = e
	}
	t.tail[b] = e
	t.next[e] = -1
}

// reserve pre-sizes the empty table for an expected row count (the
// optimizer's estimate): buckets below the load threshold insert would
// trigger at, entry and column storage at full capacity. Purely an
// allocation hint — estimates only move memory around, never semantics.
func (t *hashTable) reserve(rows int) {
	if rows <= 0 || len(t.hashes) > 0 {
		return
	}
	buckets := hashTableMinBuckets
	for buckets*3 < rows*4 {
		buckets <<= 1
	}
	if buckets > len(t.head) {
		t.rehash(buckets)
	}
	if cap(t.hashes) < rows {
		t.hashes = make([]uint64, 0, rows)
		t.next = make([]int32, 0, rows)
	}
	for c := range t.cols {
		if cap(t.cols[c]) < rows {
			t.cols[c] = make([]int64, 0, rows)
		}
	}
	for s := range t.keys {
		if cap(t.keys[s]) < rows {
			t.keys[s] = make([]int64, 0, rows)
		}
	}
}

// insertRows appends the page rows listed in rows (increasing, out of a
// page of n rows) under their hashes: one append per column, then one link
// pass. cols are the page's resolved columns, all of which the table
// stores, and keyv the rows' evaluated key columns. The buckets double
// whenever the entry count crosses the load threshold, as many times as
// one-at-a-time inserts would.
func (t *hashTable) insertRows(rows []int32, n int, hash []uint64, cols [][]int64, keyv [][]int64) {
	e0 := len(t.hashes)
	t.hashes = gatherRows(t.hashes, hash, rows, n)
	for range rows {
		t.next = append(t.next, -1)
	}
	for c := range t.cols {
		t.cols[c] = gatherRows(t.cols[c], cols[c], rows, n)
	}
	for s := range t.keys {
		t.keys[s] = gatherRows(t.keys[s], keyv[s], rows, n)
	}
	buckets := len(t.head)
	for len(t.hashes)*4 > buckets*3 {
		buckets *= 2
	}
	if buckets != len(t.head) {
		t.rehash(buckets) // links the new entries too
		return
	}
	for e := e0; e < len(t.hashes); e++ {
		t.link(int32(e))
	}
}

// gatherRows appends src's values at rows to dst; rows listing all n rows
// of the page is one plain append.
func gatherRows[T any](dst, src []T, rows []int32, n int) []T {
	if len(rows) == n {
		return append(dst, src[:n]...)
	}
	at := len(dst)
	dst = slices.Grow(dst, len(rows))[:at+len(rows)]
	for x, r := range rows {
		dst[at+x] = src[r]
	}
	return dst
}

// keysEqual reports whether entry e's key vector equals row i of keyv.
func (t *hashTable) keysEqual(e int32, keyv [][]int64, i int) bool {
	for s := range t.keys {
		if t.keys[s][e] != keyv[s][i] {
			return false
		}
	}
	return true
}

// keyer evaluates, for one side of a join, the key values of the crossing
// predicates. For predicate A.next = B.id the side containing A contributes
// Next(A, id_A) and the side containing B contributes id_B; equality of the
// two vectors is exactly the predicate conjunction.
type keyer struct {
	// per crossing predicate: the column to read in the side's pages and
	// whether to apply Next
	slots   []int
	applyNx []bool
	rels    []string
	next    func(rel string, id int64) int64
}

// newKeyer prepares key extraction for one join side. side and other are
// the relation masks (Query.RelMask) of the two sides; a relation's column
// in the side's pages is its mask bit's rank in side (slotCol).
func newKeyer(q *query.Query, side, other uint64, next func(string, int64) int64) *keyer {
	k := &keyer{next: next}
	for _, p := range q.CrossingPreds(side, other) {
		switch a, b := q.RelMask(p.A), q.RelMask(p.B); {
		case side&a != 0:
			k.slots = append(k.slots, slotCol(side, a))
			k.applyNx = append(k.applyNx, true)
			k.rels = append(k.rels, p.A)
		case side&b != 0:
			k.slots = append(k.slots, slotCol(side, b))
			k.applyNx = append(k.applyNx, false)
			k.rels = append(k.rels, p.B)
		}
	}
	return k
}

// Columnar key extraction: a composite FNV-1a fold over the keyer's
// slot/Next schedule, computed a column at a time so the per-row hot loops
// never call through the Next indirection or re-branch on applyNx.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// fnvPrime64Pow7 is fnvPrime64⁷ mod 2⁶⁴: seven FNV-1a steps over zero
	// bytes, which only multiply.
	fnvPrime64Pow7 = fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 *
		fnvPrime64 * fnvPrime64 * fnvPrime64 % (1 << 64)
)

// slotCols resolves the keyer's slot columns out of the side's page columns
// into dst (a reused scratch slice).
func (k *keyer) slotCols(cols [][]int64, dst [][]int64) [][]int64 {
	dst = dst[:0]
	for _, slot := range k.slots {
		dst = append(dst, cols[slot])
	}
	return dst
}

// evalCols materializes the evaluated key values (Next applied where the
// keyer's schedule says so) for rows [0,n) of the resolved slot columns into
// dst, one reused scratch column per slot. Row i of the result is row i's
// key vector.
func (k *keyer) evalCols(kcols [][]int64, n int, dst [][]int64) [][]int64 {
	for len(dst) < len(kcols) {
		dst = append(dst, nil)
	}
	dst = dst[:len(kcols)]
	for s := range kcols {
		col := dst[s]
		if cap(col) < n {
			col = make([]int64, n)
		}
		col = col[:n]
		src := kcols[s]
		if k.applyNx[s] {
			rel, nx := k.rels[s], k.next
			for i := 0; i < n; i++ {
				col[i] = nx(rel, src[i])
			}
		} else {
			copy(col, src[:n])
		}
		dst[s] = col
	}
	return dst
}

// hashKeyCols folds the composite FNV-1a key hash for rows [0,n) of
// already-evaluated key columns into dst: slot-major, each value's eight
// bytes low byte first (arithmetic shift on the signed value). A value in
// [0, 2¹⁶) has zero bytes 2–7, whose six steps, with byte 1's multiply,
// fold into one multiply by fnvPrime64Pow7; the hash is the same.
func hashKeyCols(keyv [][]int64, n int, dst []uint64) []uint64 {
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = fnvOffset64
	}
	for s := range keyv {
		col := keyv[s][:n]
		for i := 0; i < n; i++ {
			h, v := dst[i], col[i]
			if u := uint64(v); u < 1<<16 {
				dst[i] = ((h^(u&0xff))*fnvPrime64 ^ u>>8) * fnvPrime64Pow7
				continue
			}
			h = (h ^ (uint64(v) & 0xff)) * fnvPrime64
			h = (h ^ (uint64(v>>8) & 0xff)) * fnvPrime64
			h = (h ^ (uint64(v>>16) & 0xff)) * fnvPrime64
			h = (h ^ (uint64(v>>24) & 0xff)) * fnvPrime64
			h = (h ^ (uint64(v>>32) & 0xff)) * fnvPrime64
			h = (h ^ (uint64(v>>40) & 0xff)) * fnvPrime64
			h = (h ^ (uint64(v>>48) & 0xff)) * fnvPrime64
			h = (h ^ (uint64(v>>56) & 0xff)) * fnvPrime64
			dst[i] = h
		}
	}
	return dst
}
