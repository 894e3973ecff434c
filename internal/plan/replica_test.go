package plan

import (
	"strings"
	"testing"

	"hybridship/internal/catalog"
)

// replicatedTestCatalog is testCatalog with relation A replicated onto both
// servers; B-D stay single-copy.
func replicatedTestCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := testCatalog(t, 2)
	if err := c.SetCopies("A", []catalog.SiteID{0, 1}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBindCopySelectsReplica pins the copy dimension of binding: copy 0 of a
// primary-annotated scan binds the Home site, copy 1 the secondary.
func TestBindCopySelectsReplica(t *testing.T) {
	cat := replicatedTestCatalog(t)
	for copyIdx, want := range []catalog.SiteID{0, 1} {
		p := NewDisplay(NewScan("A"))
		annotateAll(p, QueryShipping)
		p.Scans()[0].Copy = copyIdx
		b, err := Bind(p, cat, catalog.Client)
		if err != nil {
			t.Fatal(err)
		}
		if got := b[1]; got != want {
			t.Errorf("copy %d bound to %v, want %v", copyIdx, got, want)
		}
	}
}

// TestBindRejectsCopyAnnotations table-drives the rejection of copy
// annotations naming a site that holds no replica: Bind must fail loudly
// rather than silently read a copy that does not exist.
func TestBindRejectsCopyAnnotations(t *testing.T) {
	cases := []struct {
		name    string
		table   string
		copyIdx int
		wantErr string
	}{
		{"copy beyond the replica set", "A", 2, "names copy 2, but the relation has 2"},
		{"copy on an unreplicated relation", "B", 1, "names copy 1, but the relation has 1"},
		{"far out-of-range copy", "B", 7, "names copy 7, but the relation has 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat := replicatedTestCatalog(t)
			p := NewDisplay(NewScan(tc.table))
			annotateAll(p, QueryShipping)
			p.Scans()[0].Copy = tc.copyIdx
			if _, err := Bind(p, cat, catalog.Client); err == nil {
				t.Fatalf("Bind accepted copy %d of %s", tc.copyIdx, tc.table)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Bind error = %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckStructureRejectsCopy covers the structural guard rails on the new
// field: negative indices and copies on non-scan nodes are malformed plans,
// not binding-time errors.
func TestCheckStructureRejectsCopy(t *testing.T) {
	neg := NewDisplay(NewScan("A"))
	annotateAll(neg, QueryShipping)
	neg.Scans()[0].Copy = -1
	if err := CheckStructure(neg); err == nil {
		t.Error("CheckStructure accepted a negative copy index")
	}

	join := twoJoin()
	annotateAll(join, QueryShipping)
	join.Joins()[0].Copy = 1
	if err := CheckStructure(join); err == nil {
		t.Error("CheckStructure accepted a copy annotation on a join")
	}
}
