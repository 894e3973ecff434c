package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hybridship/internal/catalog"
)

func TestChainQueryStructure(t *testing.T) {
	q := ChainQuery(10, Moderate)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(q.Relations) != 10 || len(q.Preds) != 9 {
		t.Fatalf("10-way chain: %d relations, %d preds", len(q.Relations), len(q.Preds))
	}
	// Moderate selectivity: |A||B|·sel = |A|.
	for _, p := range q.Preds {
		if p.Selectivity != 1.0/DefaultTuples {
			t.Errorf("pred %s-%s selectivity %g, want %g", p.A, p.B, p.Selectivity, 1.0/DefaultTuples)
		}
	}
	hq := ChainQuery(4, HiSel)
	for _, p := range hq.Preds {
		if p.Selectivity != 0.2/DefaultTuples {
			t.Errorf("HiSel selectivity %g, want %g", p.Selectivity, 0.2/DefaultTuples)
		}
	}
}

func TestExpectedResultChain(t *testing.T) {
	// Moderate: functional joins keep the full cardinality.
	for n := 2; n <= 10; n++ {
		if got := ExpectedResult(n, Moderate); got != DefaultTuples {
			t.Errorf("moderate %d-way = %d, want %d", n, got, DefaultTuples)
		}
	}
	// HiSel: #{id : 5^(n-1)·id < 10000}.
	want := map[int]int64{2: 2000, 3: 400, 4: 80, 5: 16, 6: 4, 7: 1, 10: 1}
	for n, w := range want {
		if got := ExpectedResult(n, HiSel); got != w {
			t.Errorf("HiSel %d-way = %d, want %d", n, got, w)
		}
	}
}

// TestNextMatchesExpected cross-checks the generator against ExpectedResult
// by brute-force evaluating the chain predicate.
func TestNextMatchesExpected(t *testing.T) {
	for _, sel := range []Selectivity{Moderate, HiSel} {
		next := Next(sel)
		for _, n := range []int{2, 3, 5} {
			count := 0
			for id := int64(0); id < DefaultTuples; id++ {
				cur, ok := id, true
				for j := 1; j < n; j++ {
					cur = next(RelName(j-1), cur)
					if cur >= DefaultTuples {
						ok = false
						break
					}
				}
				if ok {
					count++
				}
			}
			if int64(count) != ExpectedResult(n, sel) {
				t.Errorf("%v %d-way: brute force %d, ExpectedResult %d",
					sel, n, count, ExpectedResult(n, sel))
			}
		}
	}
}

func TestBuildCatalog(t *testing.T) {
	cat, err := BuildCatalog(4096, 3, PlaceRoundRobin(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cat.Relations()); got != 10 {
		t.Fatalf("relations = %d, want 10", got)
	}
	r := cat.MustRelation(RelName(4))
	if r.Home != 1 {
		t.Errorf("R4 homed at %d, want 1 (round robin over 3)", r.Home)
	}
	if r.Pages(4096) != 250 {
		t.Errorf("relation pages = %d, want 250", r.Pages(4096))
	}
}

func TestPlaceRandomCoversAllServers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		for _, servers := range []int{1, 3, 7, 10} {
			p := PlaceRandom(rng, 10, servers)
			seen := make(map[catalog.SiteID]bool)
			for _, s := range p {
				if int(s) < 0 || int(s) >= servers {
					t.Fatalf("placement out of range: %v", p)
				}
				seen[s] = true
			}
			if len(seen) != servers {
				t.Fatalf("placement %v does not cover all %d servers", p, servers)
			}
		}
	}
}

func TestPlaceRandomMoreServersThanRelationsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic when servers > relations")
		}
	}()
	PlaceRandom(rand.New(rand.NewSource(1)), 3, 5)
}

func TestCacheHelpers(t *testing.T) {
	cat, err := BuildCatalog(4096, 2, PlaceRoundRobin(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := CacheFirstK(cat, 5); err != nil {
		t.Fatal(err)
	}
	pages := cat.MustRelation(RelName(0)).Pages(cat.PageSize)
	for i := 0; i < 10; i++ {
		want := 0
		if i < 5 {
			want = pages
		}
		if got := cat.CachedPages(RelName(i)); got != want {
			t.Errorf("R%d cached pages = %d, want %d", i, got, want)
		}
	}
	if err := CacheAllFraction(cat, 0.3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got, want := cat.CachedPages(RelName(i)), pages*3/10; got != want {
			t.Errorf("R%d cached pages = %d, want %d", i, got, want)
		}
	}
}

// Property: every random placement is in range and covers every server.
func TestQuickPlacementValid(t *testing.T) {
	f := func(seed int64, serversRaw uint8) bool {
		servers := int(serversRaw%10) + 1
		p := PlaceRandom(rand.New(rand.NewSource(seed)), 10, servers)
		if len(p) != 10 {
			return false
		}
		seen := make(map[catalog.SiteID]bool)
		for _, s := range p {
			if int(s) < 0 || int(s) >= servers {
				return false
			}
			seen[s] = true
		}
		return len(seen) == servers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWriteMix(t *testing.T) {
	cat, err := BuildCatalog(4096, 2, PlaceRoundRobin(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	const N = 2000
	mix := WriteMix(cat, 42, 0.3)
	again := WriteMix(cat, 42, 0.3)
	other := WriteMix(cat, 43, 0.3)
	writes, differs := 0, false
	for qi := 0; qi < N; qi++ {
		op, ok := mix(qi)
		op2, ok2 := again(qi)
		if ok != ok2 || op != op2 {
			t.Fatalf("qi %d: same seed diverged: %v/%v vs %v/%v", qi, op, ok, op2, ok2)
		}
		if op3, ok3 := other(qi); ok3 != ok || op3 != op {
			differs = true
		}
		if !ok {
			continue
		}
		writes++
		r, rok := cat.Relation(op.Rel)
		if !rok {
			t.Fatalf("qi %d: unknown relation %q", qi, op.Rel)
		}
		pages := r.Pages(cat.PageSize)
		if op.Pages < 1 || op.Pages > 4 || op.Page0 < 0 || op.Page0+op.Pages > pages {
			t.Fatalf("qi %d: bad run [%d,%d) of %d pages", qi, op.Page0, op.Page0+op.Pages, pages)
		}
	}
	if !differs {
		t.Error("different seeds produced identical mixes")
	}
	// 0.3 of 2000 with independent draws: 600 expected, allow wide slack.
	if writes < 450 || writes > 750 {
		t.Errorf("write count %d implausible for frac 0.3 over %d queries", writes, N)
	}
	if _, ok := WriteMix(cat, 42, 0)(7); ok {
		t.Error("frac 0 produced a write")
	}
}
