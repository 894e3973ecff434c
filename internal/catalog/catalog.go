// Package catalog describes the database seen by the optimizer and the
// execution engine: base relations, their statistics, the servers holding
// each copy, and the portions cached on the client's disk.
//
// Following the paper (§3.3): relations are not horizontally partitioned and
// the client holds no primary copies; cached data is a contiguous prefix of a
// relation, resident on the client disk. Beyond the paper, a relation may be
// replicated (DESIGN.md §14): Home is the primary of an optional Copies list
// whose secondaries live on distinct servers. An unreplicated catalog (no
// Copies set anywhere) is bit-identical to the historical single-copy form.
package catalog

import (
	"fmt"

	"hybridship/internal/seedmix"
)

// seedReplica tags the seed stream that places replica secondaries, keeping
// it disjoint from every other derivation in the tree (DESIGN.md §6).
const seedReplica int64 = 301

// SiteID identifies a machine. The client is always site -1; servers are
// numbered from 0.
type SiteID int

// Client is the site at which queries are submitted and results displayed.
const Client SiteID = -1

// Relation is a base relation.
type Relation struct {
	Name       string
	Tuples     int    // cardinality
	TupleBytes int    // bytes per tuple after projection
	Home       SiteID // server storing the primary copy; never Client

	// Copies is the replica set: Copies[0] == Home (the primary) followed by
	// the secondaries, each on a distinct server. A nil Copies means the
	// relation is unreplicated — the exact legacy single-copy catalog.
	Copies []SiteID
}

// NumCopies reports how many copies of the relation exist (at least 1: the
// primary at Home).
func (r *Relation) NumCopies() int {
	if len(r.Copies) == 0 {
		return 1
	}
	return len(r.Copies)
}

// CopySite returns the server holding copy i; copy 0 is the primary at Home.
func (r *Relation) CopySite(i int) SiteID {
	if len(r.Copies) == 0 {
		if i != 0 {
			panic(fmt.Sprintf("catalog: relation %s has no copy %d", r.Name, i))
		}
		return r.Home
	}
	return r.Copies[i]
}

// HasCopy reports whether server s holds a copy of the relation.
func (r *Relation) HasCopy(s SiteID) bool {
	if len(r.Copies) == 0 {
		return s == r.Home
	}
	for _, c := range r.Copies {
		if c == s {
			return true
		}
	}
	return false
}

// Pages returns the number of pages the relation occupies. Tuples do not
// span page boundaries, so a 10,000-tuple relation of 100-byte tuples
// occupies 250 four-kilobyte pages — the figure the paper reports.
func (r *Relation) Pages(pageSize int) int {
	if r.Tuples == 0 {
		return 0
	}
	perPage := pageSize / r.TupleBytes
	if perPage < 1 {
		perPage = 1
	}
	return (r.Tuples + perPage - 1) / perPage
}

// Catalog is the schema plus placement and client-cache state for one system
// configuration.
type Catalog struct {
	PageSize   int
	NumServers int
	rels       []*Relation        // registration order: the relation with ID i is rels[i-1]
	ids        map[string]RelID   // name -> ID
	cachedFrac map[string]float64 // fraction of each relation cached at the client
}

// RelID is a relation's dense identifier within one catalog: its
// registration position plus one, so the zero RelID names no relation. A
// hot loop that resolves names to IDs once can then look relations and
// per-relation facts up by slice index instead of by string.
type RelID int

// New creates an empty catalog.
func New(pageSize, numServers int) *Catalog {
	if pageSize <= 0 || numServers < 0 {
		panic("catalog: invalid configuration")
	}
	return &Catalog{
		PageSize:   pageSize,
		NumServers: numServers,
		ids:        make(map[string]RelID),
		cachedFrac: make(map[string]float64),
	}
}

// CheckServerLoad reports an error if a key of load, an external load per
// site, names no server of c; the error names the smallest such key. The
// happy path only looks server IDs up, so it does not range over the map.
func (c *Catalog) CheckServerLoad(load map[SiteID]float64) error {
	present := 0
	for s := 0; s < c.NumServers && present < len(load); s++ {
		if _, ok := load[SiteID(s)]; ok {
			present++
		}
	}
	if present == len(load) {
		return nil
	}
	first := true
	var bad SiteID
	for s := range load { //hslint:ordered -- a minimum over the keys does not depend on their order
		if (s < 0 || int(s) >= c.NumServers) && (first || s < bad) {
			first, bad = false, s
		}
	}
	return fmt.Errorf("catalog: server load names site %d, not one of the %d servers", bad, c.NumServers)
}

// AddRelation registers a base relation. The home server must exist.
func (c *Catalog) AddRelation(r Relation) error {
	if _, dup := c.ids[r.Name]; dup {
		return fmt.Errorf("catalog: duplicate relation %q", r.Name)
	}
	if r.Home == Client {
		return fmt.Errorf("catalog: relation %q: client cannot hold a primary copy", r.Name)
	}
	if int(r.Home) < 0 || int(r.Home) >= c.NumServers {
		return fmt.Errorf("catalog: relation %q: home server %d out of range [0,%d)", r.Name, r.Home, c.NumServers)
	}
	if r.Tuples < 0 || r.TupleBytes <= 0 {
		return fmt.Errorf("catalog: relation %q: invalid statistics", r.Name)
	}
	cp := r
	c.rels = append(c.rels, &cp)
	c.ids[r.Name] = RelID(len(c.rels))
	return nil
}

// SetCopies declares the full replica set of a relation. The first entry
// must be the relation's Home (the primary); every entry must be a distinct
// in-range server. Passing a single-entry set {Home} resets the relation to
// the unreplicated form, so such a catalog stays DeepEqual to one that never
// saw SetCopies.
func (c *Catalog) SetCopies(name string, sites []SiteID) error {
	r, ok := c.Relation(name)
	if !ok {
		return fmt.Errorf("catalog: unknown relation %q", name)
	}
	if len(sites) == 0 || sites[0] != r.Home {
		return fmt.Errorf("catalog: relation %q: copies must start with the primary at %d", name, r.Home)
	}
	for i, s := range sites {
		if s == Client {
			return fmt.Errorf("catalog: relation %q: client cannot hold a copy", name)
		}
		if int(s) < 0 || int(s) >= c.NumServers {
			return fmt.Errorf("catalog: relation %q: copy server %d out of range [0,%d)", name, s, c.NumServers)
		}
		for j := 0; j < i; j++ {
			if sites[j] == s {
				return fmt.Errorf("catalog: relation %q: duplicate copy server %d", name, s)
			}
		}
	}
	if len(sites) == 1 {
		r.Copies = nil
		return nil
	}
	r.Copies = append([]SiteID(nil), sites...)
	return nil
}

// ReplicateAll places rf copies of every relation: the primary stays at Home
// and rf-1 secondaries are drawn deterministically from the seed, each on a
// distinct server. rf must be in [1,3] and cannot exceed the server count.
// ReplicateAll(1, seed) is a no-op, leaving the catalog bit-identical to the
// unreplicated form.
func (c *Catalog) ReplicateAll(rf int, seed int64) error {
	if rf < 1 || rf > 3 {
		return fmt.Errorf("catalog: replication factor %d out of [1,3]", rf)
	}
	if rf > c.NumServers {
		return fmt.Errorf("catalog: replication factor %d exceeds %d servers", rf, c.NumServers)
	}
	if rf == 1 {
		return nil
	}
	for ri, r := range c.rels {
		copies := make([]SiteID, 1, rf)
		copies[0] = r.Home
		for k := 1; k < rf; k++ {
			// Candidates are the servers not yet holding a copy, in
			// ascending ID order; the seeded draw picks one of them.
			cands := make([]SiteID, 0, c.NumServers)
			for s := 0; s < c.NumServers; s++ {
				if !contains(copies, SiteID(s)) {
					cands = append(cands, SiteID(s))
				}
			}
			pick := uint64(seedmix.Derive(seed, seedReplica, int64(ri), int64(k))) % uint64(len(cands))
			copies = append(copies, cands[pick])
		}
		r.Copies = copies
	}
	return nil
}

func contains(sites []SiteID, s SiteID) bool {
	for _, c := range sites {
		if c == s {
			return true
		}
	}
	return false
}

// Relation looks up a relation by name.
func (c *Catalog) Relation(name string) (*Relation, bool) {
	if id, ok := c.ids[name]; ok {
		return c.rels[id-1], true
	}
	return nil, false
}

// MustRelation looks up a relation, panicking if absent. For internal use on
// validated plans.
func (c *Catalog) MustRelation(name string) *Relation {
	r, ok := c.Relation(name)
	if !ok {
		panic("catalog: unknown relation " + name)
	}
	return r
}

// Relations returns relation names in registration order.
func (c *Catalog) Relations() []string {
	names := make([]string, len(c.rels))
	for i, r := range c.rels {
		names[i] = r.Name
	}
	return names
}

// ID returns the named relation's ID, or 0 if the catalog lacks it.
func (c *Catalog) ID(name string) RelID { return c.ids[name] }

// ByID returns the relation with the given ID, or nil if there is none.
func (c *Catalog) ByID(id RelID) *Relation {
	if i := int(id) - 1; uint(i) < uint(len(c.rels)) {
		return c.rels[i]
	}
	return nil
}

// SetCachedFraction declares that the first frac (0..1) of the relation is
// cached on the client's disk.
func (c *Catalog) SetCachedFraction(name string, frac float64) error {
	if _, ok := c.ids[name]; !ok {
		return fmt.Errorf("catalog: unknown relation %q", name)
	}
	if frac < 0 || frac > 1 {
		return fmt.Errorf("catalog: cached fraction %g out of [0,1]", frac)
	}
	c.cachedFrac[name] = frac
	return nil
}

// CachedPages reports how many pages of the relation are cached at the
// client; the cached portion is a contiguous prefix (paper §4.2.1).
func (c *Catalog) CachedPages(name string) int {
	r, ok := c.Relation(name)
	if !ok {
		return 0
	}
	return int(c.cachedFrac[name] * float64(r.Pages(c.PageSize)))
}

// Clone returns a deep copy, useful for constructing "assumed" catalogs for
// static and 2-step optimization experiments (§5).
func (c *Catalog) Clone() *Catalog {
	n := New(c.PageSize, c.NumServers)
	for _, r := range c.rels {
		cp := *r
		cp.Copies = append([]SiteID(nil), r.Copies...)
		n.rels = append(n.rels, &cp)
		n.ids[cp.Name] = RelID(len(n.rels))
	}
	for k, v := range c.cachedFrac {
		n.cachedFrac[k] = v
	}
	return n
}
