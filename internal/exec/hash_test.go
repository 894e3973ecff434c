package exec

import (
	"math"
	"math/rand"
	"testing"
)

// TestHashKeyColsMatchesByteFold checks hashKeyCols, whose short-key path
// folds bytes 1–7 of a value below 2¹⁶ into one multiply, against the plain
// FNV-1a byte loop of refHash: random keys over the whole int64 range, small
// keys, negative keys, and the values around the 2¹⁶ boundary, in one and
// two key columns.
func TestHashKeyColsMatchesByteFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := []int64{0, 1, 255, 256, 65534, 65535, 65536, 65537, 1 << 20, -1, -2, -65535, -65536,
		math.MaxInt64, math.MinInt64}
	for range 4096 {
		keys = append(keys, int64(rng.Uint64()), rng.Int63n(1<<16), rng.Int63n(1<<17)-(1<<16), -rng.Int63n(1<<17))
	}
	n := len(keys)
	shifted := append(keys[1:n:n], keys[0])
	for kw, keyv := range [][][]int64{{keys}, {keys, shifted}} {
		got := hashKeyCols(keyv, n, nil)
		for i := range n {
			vec := make([]int64, len(keyv))
			for s := range keyv {
				vec[s] = keyv[s][i]
			}
			if want := refHash(vec); got[i] != want {
				t.Fatalf("%d key columns, row %d %v: hash %#x, want %#x", kw+1, i, vec, got[i], want)
			}
		}
	}
}

// TestRouteCutMatchesFloatShare checks the integer memory cut of
// joinAlloc.route against the float share it replaces, x/2²⁴ < frac0 for
// the 24-bit hash prefix x, at every prefix, for hand-picked shares and the
// shares joinAllocFor grants the minimum allocation.
func TestRouteCutMatchesFloatShare(t *testing.T) {
	e, _ := newTestJoin(t)
	e.cfg.Params.MaxAlloc = false
	shares := []float64{0, 1e-9, 0.25, 1.0 / 3, 0.5, 0.7, 1 - 1e-9, 1}
	for _, pages := range []int{3, 10, 57, 250, 1000, 4096} {
		if al := e.joinAllocFor(pages, pages); al.nParts > 0 {
			shares = append(shares, al.frac0)
		}
	}
	for _, frac0 := range shares {
		al := joinAlloc{nParts: 3}
		al.setShare(frac0)
		for x := uint64(0); x < 1<<24; x++ {
			h := x<<40 | x&0xff
			if mem, want := al.route(h) == 0, float64(h>>40)/float64(1<<24) < frac0; mem != want {
				t.Fatalf("frac0 %v, prefix %#x: in memory %v, float share says %v", frac0, x, mem, want)
			}
		}
	}
}

// TestRouteKeepsIdentitySelection: a page that spills nothing routes every
// row to memory through the cached identity selection, and a spilling page
// routed in between leaves that selection intact.
func TestRouteKeepsIdentitySelection(t *testing.T) {
	_, j := newTestJoin(t)
	j.al = joinAlloc{memPages: 2, nParts: 2, chunkPages: 1}
	j.al.setShare(0.5)
	parts := []*partition{newPartition(j.tpp, 1), newPartition(j.tpp, 1)}
	rng := rand.New(rand.NewSource(1))
	hash := make([]uint64, 64)
	for i := range hash {
		hash[i] = rng.Uint64()
	}
	identity := func() {
		t.Helper()
		j.route(hash, len(hash), nil)
		if len(j.ks.mem) != len(hash) {
			t.Fatalf("%d rows in memory, want %d", len(j.ks.mem), len(hash))
		}
		for i, r := range j.ks.mem {
			if r != int32(i) {
				t.Fatalf("in-memory row %d is %d, want the identity selection", i, r)
			}
		}
	}
	identity()
	j.route(hash, len(hash), parts)
	if n := len(j.ks.mem); n == 0 || n == len(hash) {
		t.Fatalf("the spilling page kept %d of %d rows in memory; want a split", n, len(hash))
	}
	identity()
}
