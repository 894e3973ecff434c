package opt

import (
	"math/bits"
	"slices"

	"hybridship/internal/catalog"
	"hybridship/internal/plan"
)

// memoMax bounds the per-search memo; see memo.
const memoMax = 1 << 12

// memo maps plan keys (keyCoder's words) to the metric's value, or to
// unbindability, without allocating once warm: an open-addressing table
// over a power-of-two array, with the keys, which all have the same number
// of words in one search, in a parallel array.
//
// It holds at most memoMax entries and is cleared wholesale when full. A
// 10-way search evaluates about 20k candidates and would otherwise grow the
// memo to about 18k entries, for a hit rate of 8-19%: the states the walk
// revisits, it mostly revisits within a few thousand steps. Measured over
// 10-way chains on 1, 2, 5 and 10 servers (response time, three seeds
// each), going from 1<<15 to 1<<12 entries moves the hit rate from 13.4% to
// 12.0% under HY, 8.5% to 8.1% under DS and 19.2% to 17.7% under QS. 2-way
// searches never hold more than 24 entries, so the bound never binds there,
// and their table stays at its smallest size. Hits and misses return the
// same bits, so the bound changes speed, never a plan.
type memo struct {
	words int        // key words per entry
	slots []memoSlot // a power of two long, at most half full
	keys  []uint64   // slot s's key is keys[s*words : (s+1)*words]
	n     int        // live entries
	gen   uint32     // a slot is live iff its gen is this; clear bumps it
}

type memoSlot struct {
	v   float64
	gen uint32
	ok  bool
}

// memoMinSlots is the table's starting size.
const memoMinSlots = 64

// hashKey mixes the key words (multiply-xorshift per word).
func hashKey(key []uint64) uint64 {
	h := uint64(len(key))
	for _, w := range key {
		h = (h ^ w) * 0xa0761d6478bd642f
		h ^= h >> 32
	}
	h *= 0xe7037ed1a0b428db
	return h ^ h>>29
}

// find returns the slot holding key, or the empty slot where it belongs.
func (m *memo) find(h uint64, key []uint64) (int, bool) {
	mask := uint64(len(m.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		if m.slots[s].gen != m.gen {
			return int(s), false
		}
		if slices.Equal(m.keys[int(s)*m.words:int(s+1)*m.words], key) {
			return int(s), true
		}
	}
}

// get looks key, whose hash is h, up.
func (m *memo) get(h uint64, key []uint64) (v float64, ok, hit bool) {
	if len(m.slots) == 0 || len(key) != m.words {
		return 0, false, false
	}
	s, hit := m.find(h, key)
	if !hit {
		return 0, false, false
	}
	return m.slots[s].v, m.slots[s].ok, true
}

// put records key's value, clearing the table first if it is full.
func (m *memo) put(h uint64, key []uint64, v float64, ok bool) {
	if len(key) != m.words || len(m.slots) == 0 {
		m.words = len(key)
		m.alloc(memoMinSlots)
	}
	if m.n >= memoMax {
		m.clear()
	}
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	s, _ := m.find(h, key)
	m.slots[s] = memoSlot{v: v, gen: m.gen, ok: ok}
	copy(m.keys[s*m.words:(s+1)*m.words], key)
	m.n++
}

// alloc replaces the table with an empty one of the given size.
func (m *memo) alloc(size int) {
	m.slots = make([]memoSlot, size)
	m.keys = make([]uint64, size*m.words)
	m.n, m.gen = 0, 1
}

// grow doubles the table, re-inserting the live entries.
func (m *memo) grow() {
	old, oldKeys, gen := m.slots, m.keys, m.gen
	m.alloc(2 * len(old))
	for i := range old {
		if old[i].gen != gen {
			continue
		}
		key := oldKeys[i*m.words : (i+1)*m.words]
		s, _ := m.find(hashKey(key), key)
		m.slots[s] = old[i]
		m.slots[s].gen = m.gen
		copy(m.keys[s*m.words:(s+1)*m.words], key)
		m.n++
	}
}

// clear empties the table, keeping its storage.
func (m *memo) clear() {
	m.n = 0
	m.gen++
	if m.gen == 0 { // wrapped: stale slots could look live again
		clear(m.slots)
		m.gen = 1
	}
}

// keyCoder packs a flat plan into memo key words: for each node in
// pre-order, a fixed-width code of its class (display, join, aggregate, or
// the scan or select of one relation), its annotation and its copy index.
// Every class has a fixed arity, so the sequence decodes to exactly one
// tree: two plans have equal keys iff they are the same tree with the same
// annotations and copies, whichever start of the search reached them. The
// display's annotation is left out: no move changes it and nothing reads
// it. A relation the catalog lacks has ID 0, so all its scans and selects
// share a class: such a scan cannot be estimated at all, and such a select
// takes the default selectivity, whatever its name.
type keyCoder struct {
	key       []uint64 // the working plan's key
	class     []uint64 // by node ID
	annShift  uint
	copyShift uint
	width     uint    // bits per node
	prevShape [3]uint // width, copyShift and node count of the last start
}

// reset derives the codes for the plan f, which a search is starting from,
// and reports whether the previous start's keys had another layout, so the
// memo must be cleared.
func (k *keyCoder) reset(f *plan.Flat, cat *catalog.Catalog) bool {
	k.class = slices.Grow(k.class[:0], len(f.Nodes))[:len(f.Nodes)]
	maxClass, maxCopy := uint64(2), 0
	for i := range f.Nodes {
		nd := &f.Nodes[i]
		var c uint64
		switch nd.Kind {
		case plan.KindDisplay:
			c = 0
		case plan.KindJoin:
			c = 1
		case plan.KindAgg:
			c = 2
		case plan.KindScan:
			c = 3 + 2*uint64(nd.Rel)
			maxCopy = max(maxCopy, nd.Copy)
			if rel := cat.ByID(nd.Rel); rel != nil {
				maxCopy = max(maxCopy, rel.NumCopies()-1)
			}
		case plan.KindSelect:
			c = 4 + 2*uint64(nd.Rel)
		}
		k.class[i] = c
		maxClass = max(maxClass, c)
	}
	k.annShift = uint(bits.Len64(maxClass))
	k.copyShift = k.annShift + 3 // annotations below the display are 0..5
	k.width = k.copyShift + uint(bits.Len(uint(maxCopy)))
	shape := [3]uint{k.width, k.copyShift, uint(len(f.Nodes))}
	stale := shape != k.prevShape
	k.prevShape = shape
	return stale
}

// code is node i's code.
func (k *keyCoder) code(f *plan.Flat, i int32) uint64 {
	nd := &f.Nodes[i]
	if nd.Kind == plan.KindDisplay {
		return k.class[i]
	}
	return k.class[i] | uint64(nd.Ann)<<k.annShift | uint64(nd.Copy)<<k.copyShift
}

// encode packs f's key into k.key; f.Pre must be current.
func (k *keyCoder) encode(f *plan.Flat) {
	buf, width := k.key[:0], k.width
	var w uint64
	used := uint(0)
	for _, i := range f.Pre {
		c := k.code(f, i)
		w |= c << used
		used += width
		if used >= 64 {
			buf = append(buf, w)
			used -= 64
			w = c >> (width - used)
		}
	}
	if used > 0 {
		buf = append(buf, w)
	}
	k.key = buf
}

// patch rewrites the code of node i, whose annotation or copy changed, in
// k.key.
func (k *keyCoder) patch(f *plan.Flat, i int32) {
	k.put(f.PrePos[i], k.code(f, i))
}

// recode rewrites the codes at pre-order positions [lo, hi), which f.Pre
// holds anew, packing them word by word as encode does.
func (k *keyCoder) recode(f *plan.Flat, lo, hi int32) {
	width := k.width
	bit := uint(lo) * width
	w, used := bit/64, bit%64
	acc := k.key[w] & (1<<used - 1) // the codes below lo
	for _, i := range f.Pre[lo:hi] {
		c := k.code(f, i)
		acc |= c << used
		used += width
		if used >= 64 {
			k.key[w] = acc
			w++
			used -= 64
			acc = c >> (width - used)
		}
	}
	if used > 0 {
		k.key[w] = acc | k.key[w]&^(1<<used-1) // and the codes from hi on
	}
}

// put writes the code c at pre-order position p of k.key.
func (k *keyCoder) put(p int32, c uint64) {
	width := k.width
	bit := uint(p) * width
	w, off := bit/64, bit%64
	mask := uint64(1)<<width - 1
	k.key[w] = k.key[w]&^(mask<<off) | c<<off
	if off+width > 64 {
		hi := 64 - off // bits of c already placed in word w
		k.key[w+1] = k.key[w+1]&^(mask>>hi) | c>>hi
	}
}
