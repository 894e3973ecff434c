package catalog

import (
	"testing"
	"testing/quick"
)

func mustAdd(t *testing.T, c *Catalog, r Relation) {
	t.Helper()
	if err := c.AddRelation(r); err != nil {
		t.Fatal(err)
	}
}

func TestPagesPacking(t *testing.T) {
	cases := []struct {
		tuples, tupleBytes, pageSize, want int
	}{
		{10000, 100, 4096, 250}, // the paper's relations: 40 tuples/page
		{0, 100, 4096, 0},
		{1, 100, 4096, 1},
		{40, 100, 4096, 1},
		{41, 100, 4096, 2},
		{10, 8192, 4096, 10}, // oversized tuples: one per page
	}
	for _, c := range cases {
		r := Relation{Name: "r", Tuples: c.tuples, TupleBytes: c.tupleBytes, Home: 0}
		if got := r.Pages(c.pageSize); got != c.want {
			t.Errorf("Pages(%d tuples x %dB, page %d) = %d, want %d",
				c.tuples, c.tupleBytes, c.pageSize, got, c.want)
		}
	}
}

func TestAddRelationValidation(t *testing.T) {
	c := New(4096, 2)
	mustAdd(t, c, Relation{Name: "a", Tuples: 10, TupleBytes: 100, Home: 0})
	if err := c.AddRelation(Relation{Name: "a", Tuples: 10, TupleBytes: 100, Home: 0}); err == nil {
		t.Error("duplicate relation accepted")
	}
	if err := c.AddRelation(Relation{Name: "b", Tuples: 10, TupleBytes: 100, Home: 2}); err == nil {
		t.Error("out-of-range home server accepted")
	}
	if err := c.AddRelation(Relation{Name: "c", Tuples: 10, TupleBytes: 100, Home: Client}); err == nil {
		t.Error("client primary copy accepted")
	}
	if err := c.AddRelation(Relation{Name: "d", Tuples: -1, TupleBytes: 100, Home: 0}); err == nil {
		t.Error("negative cardinality accepted")
	}
	if err := c.AddRelation(Relation{Name: "e", Tuples: 10, TupleBytes: 0, Home: 0}); err == nil {
		t.Error("zero tuple width accepted")
	}
}

func TestCachedFraction(t *testing.T) {
	c := New(4096, 1)
	mustAdd(t, c, Relation{Name: "a", Tuples: 10000, TupleBytes: 100, Home: 0})
	if err := c.SetCachedFraction("a", 0.5); err != nil {
		t.Fatal(err)
	}
	if got := c.CachedPages("a"); got != 125 {
		t.Errorf("cached pages = %d, want 125 (half of 250)", got)
	}
	if err := c.SetCachedFraction("a", 1.5); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if err := c.SetCachedFraction("nope", 0.5); err == nil {
		t.Error("unknown relation accepted")
	}
	if got := c.CachedPages("nope"); got != 0 {
		t.Errorf("unknown relation cached pages = %d, want 0", got)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	c := New(4096, 2)
	mustAdd(t, c, Relation{Name: "a", Tuples: 10000, TupleBytes: 100, Home: 0})
	c.SetCachedFraction("a", 0.25)
	cl := c.Clone()
	cl.SetCachedFraction("a", 0.75)
	r, _ := cl.Relation("a")
	r.Home = 1
	if c.CachedPages("a") != 62 { // a quarter of 250 pages
		t.Error("clone shares cache state with original")
	}
	if orig, _ := c.Relation("a"); orig.Home != 0 {
		t.Error("clone shares relation structs with original")
	}
}

func TestRelationsOrderStable(t *testing.T) {
	c := New(4096, 1)
	names := []string{"z", "a", "m", "b"}
	for _, n := range names {
		mustAdd(t, c, Relation{Name: n, Tuples: 10, TupleBytes: 100, Home: 0})
	}
	got := c.Relations()
	for i, n := range names {
		if got[i] != n {
			t.Fatalf("Relations() = %v, want registration order %v", got, names)
		}
	}
}

// Property: cached pages never exceed the relation size and scale
// monotonically with the fraction.
func TestQuickCachedPagesMonotone(t *testing.T) {
	f := func(tuples uint16, fracRaw uint8) bool {
		c := New(4096, 1)
		if err := c.AddRelation(Relation{Name: "r", Tuples: int(tuples), TupleBytes: 100, Home: 0}); err != nil {
			return false
		}
		r, _ := c.Relation("r")
		frac := float64(fracRaw%101) / 100
		if err := c.SetCachedFraction("r", frac); err != nil {
			return false
		}
		cp := c.CachedPages("r")
		if cp < 0 || cp > r.Pages(4096) {
			return false
		}
		if err := c.SetCachedFraction("r", 1.0); err != nil {
			return false
		}
		return c.CachedPages("r") == r.Pages(4096) && cp <= c.CachedPages("r")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRelationIDs pins the dense IDs: registration position plus one, kept
// by Clone, and ByID naming no relation outside them.
func TestRelationIDs(t *testing.T) {
	c := New(4096, 2)
	for _, name := range []string{"a", "b", "c"} {
		mustAdd(t, c, Relation{Name: name, Tuples: 10, TupleBytes: 100, Home: 1})
	}
	for want, name := range []string{"", "a", "b", "c"} {
		if name == "" {
			continue
		}
		if got := c.ID(name); got != RelID(want) {
			t.Errorf("ID(%q) = %d, want %d", name, got, want)
		}
		if got := c.Clone().ID(name); got != RelID(want) {
			t.Errorf("clone: ID(%q) = %d, want %d", name, got, want)
		}
	}
	if c.ID("z") != 0 {
		t.Error("unknown relation has a nonzero ID")
	}
	for _, tc := range []struct {
		id   RelID
		want string
	}{
		{2, "b"},
		{0, ""}, // the zero ID names no relation
		{-4, ""},
		{9, ""},
	} {
		r := c.ByID(tc.id)
		if (r != nil) != (tc.want != "") || (r != nil && r.Name != tc.want) {
			t.Errorf("ByID(%d) = %v, want %q", tc.id, r, tc.want)
		}
	}
}
