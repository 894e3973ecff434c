package plan

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hybridship/internal/catalog"
)

func testCatalog(t testing.TB, servers int) *catalog.Catalog {
	t.Helper()
	c := catalog.New(4096, servers)
	names := []string{"A", "B", "C", "D"}
	for i, n := range names {
		if err := c.AddRelation(catalog.Relation{
			Name: n, Tuples: 10000, TupleBytes: 100, Home: catalog.SiteID(i % servers),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// twoJoin builds display(join(join(scan A, scan B), scan C)).
func twoJoin() *Node {
	return NewDisplay(NewJoin(NewJoin(NewScan("A"), NewScan("B")), NewScan("C")))
}

// TestPolicyAnnotationTable asserts Table 1 of the paper verbatim.
func TestPolicyAnnotationTable(t *testing.T) {
	cases := []struct {
		kind Kind
		pol  Policy
		want []Annotation
	}{
		{KindDisplay, DataShipping, []Annotation{AnnClient}},
		{KindDisplay, QueryShipping, []Annotation{AnnClient}},
		{KindDisplay, HybridShipping, []Annotation{AnnClient}},
		{KindJoin, DataShipping, []Annotation{AnnConsumer}},
		{KindJoin, QueryShipping, []Annotation{AnnInner, AnnOuter}},
		{KindJoin, HybridShipping, []Annotation{AnnConsumer, AnnInner, AnnOuter}},
		{KindSelect, DataShipping, []Annotation{AnnConsumer}},
		{KindSelect, QueryShipping, []Annotation{AnnProducer}},
		{KindSelect, HybridShipping, []Annotation{AnnConsumer, AnnProducer}},
		{KindScan, DataShipping, []Annotation{AnnClient}},
		{KindScan, QueryShipping, []Annotation{AnnPrimary}},
		{KindScan, HybridShipping, []Annotation{AnnClient, AnnPrimary}},
	}
	for _, c := range cases {
		got := AllowedAnnotations(c.kind, c.pol)
		if len(got) != len(c.want) {
			t.Errorf("%v/%v: got %v, want %v", c.kind, c.pol, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%v/%v: got %v, want %v", c.kind, c.pol, got, c.want)
			}
		}
	}
}

func annotateAll(root *Node, pol Policy) {
	root.Walk(func(n *Node) {
		n.Ann = AllowedAnnotations(n.Kind, pol)[0]
	})
}

func TestValidatePolicies(t *testing.T) {
	for _, pol := range []Policy{DataShipping, QueryShipping, HybridShipping} {
		p := twoJoin()
		annotateAll(p, pol)
		if err := ValidateFor(p, pol); err != nil {
			t.Errorf("%v: valid plan rejected: %v", pol, err)
		}
	}
	// A client scan is illegal under query-shipping.
	p := twoJoin()
	annotateAll(p, QueryShipping)
	p.Left.Right.Ann = AnnClient
	if err := ValidateFor(p, QueryShipping); err == nil {
		t.Error("QS plan with client scan accepted")
	}
	// A consumer join is illegal under query-shipping.
	p = twoJoin()
	annotateAll(p, QueryShipping)
	p.Left.Ann = AnnConsumer
	if err := ValidateFor(p, QueryShipping); err == nil {
		t.Error("QS plan with consumer join accepted")
	}
	// Any DS plan is a valid HY plan (HY's space contains DS and QS).
	p = twoJoin()
	annotateAll(p, DataShipping)
	if err := ValidateFor(p, HybridShipping); err != nil {
		t.Errorf("DS plan rejected by HY: %v", err)
	}
}

func TestBindDataShipping(t *testing.T) {
	cat := testCatalog(t, 2)
	p := twoJoin()
	annotateAll(p, DataShipping)
	b, err := Bind(p, cat, catalog.Client)
	if err != nil {
		t.Fatal(err)
	}
	for i, site := range b {
		if site != catalog.Client {
			t.Errorf("node %d bound to %v, want client", i, site)
		}
	}
}

// nodeID returns n's node ID in the plan rooted at root: its pre-order
// position, which indexes its site in a Binding.
func nodeID(root, n *Node) int {
	id, i := -1, 0
	root.Walk(func(m *Node) {
		if m == n {
			id = i
		}
		i++
	})
	return id
}

func TestBindQueryShipping(t *testing.T) {
	cat := testCatalog(t, 2)
	p := twoJoin()
	annotateAll(p, QueryShipping) // joins annotated inner
	b, err := Bind(p, cat, catalog.Client)
	if err != nil {
		t.Fatal(err)
	}
	// scan A at server 0, scan B at server 1, scan C at server 0
	scans := p.Scans()
	wantSites := []catalog.SiteID{0, 1, 0}
	for i, s := range scans {
		if got := b[nodeID(p, s)]; got != wantSites[i] {
			t.Errorf("scan %s at %v, want %v", s.Table, got, wantSites[i])
		}
	}
	// join(A,B) annotated inner -> site of scan A = server 0
	joins := p.Joins()
	if got := b[nodeID(p, joins[1])]; got != 0 {
		t.Errorf("inner join bound to %v, want server 0", got)
	}
	// top join annotated inner -> site of join(A,B) = server 0
	if got := b[nodeID(p, joins[0])]; got != 0 {
		t.Errorf("top join bound to %v, want server 0", got)
	}
	if b[0] != catalog.Client {
		t.Errorf("display bound to %v, want client", b[0])
	}
}

func TestBindOuterAnnotation(t *testing.T) {
	cat := testCatalog(t, 2)
	p := twoJoin()
	annotateAll(p, QueryShipping)
	p.Left.Ann = AnnOuter      // top join at site of scan C = server 0
	p.Left.Left.Ann = AnnOuter // join(A,B) at site of scan B = server 1
	b, err := Bind(p, cat, catalog.Client)
	if err != nil {
		t.Fatal(err)
	}
	if got := b[nodeID(p, p.Left.Left)]; got != 1 {
		t.Errorf("join(A,B) bound to %v, want server 1", got)
	}
	if got := b[nodeID(p, p.Left)]; got != 0 {
		t.Errorf("top join bound to %v, want server 0", got)
	}
}

func TestBindDetectsCycle(t *testing.T) {
	cat := testCatalog(t, 2)
	// select(producer) over join(consumer): the select points down at the
	// join, the join points up at the select — the two-node cycle of §2.2.3.
	j := NewJoin(NewScan("A"), NewScan("B"))
	j.Ann = AnnConsumer
	sel := NewSelect(j, "A")
	sel.Ann = AnnProducer
	p := NewDisplay(sel)
	if _, err := Bind(p, cat, catalog.Client); err == nil {
		t.Fatal("cycle not detected")
	} else if !strings.Contains(err.Error(), "ill-formed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestBindResolvableConsumerChain(t *testing.T) {
	cat := testCatalog(t, 2)
	// join(consumer) under display resolves to the client.
	j := NewJoin(NewScan("A"), NewScan("B"))
	j.Ann = AnnConsumer
	p := NewDisplay(j)
	b, err := Bind(p, cat, catalog.Client)
	if err != nil {
		t.Fatal(err)
	}
	if b[1] != catalog.Client {
		t.Errorf("consumer join bound to %v, want client", b[1])
	}
}

func TestBindUnknownRelation(t *testing.T) {
	cat := testCatalog(t, 2)
	p := NewDisplay(NewScan("ZZZ"))
	if _, err := Bind(p, cat, catalog.Client); err == nil {
		t.Fatal("unknown relation not rejected")
	}
}

func TestCheckStructure(t *testing.T) {
	cases := []struct {
		name string
		root *Node
	}{
		{"nil", nil},
		{"no display root", NewScan("A")},
		{"display below root", NewDisplay(NewDisplay(NewScan("A")))},
		{"join missing child", NewDisplay(&Node{Kind: KindJoin, Left: NewScan("A")})},
		{"scan with child", NewDisplay(&Node{Kind: KindScan, Table: "A", Left: NewScan("B")})},
		{"select two children", NewDisplay(&Node{Kind: KindSelect, Rel: "A", Left: NewScan("A"), Right: NewScan("B")})},
		{"scan without table", NewDisplay(&Node{Kind: KindScan})},
	}
	for _, c := range cases {
		if err := CheckStructure(c.root); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := CheckStructure(twoJoin()); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := twoJoin()
	c := p.Clone()
	c.Left.Ann = AnnOuter
	c.Left.Left.Left.Table = "X"
	if p.Left.Ann == AnnOuter || p.Left.Left.Left.Table == "X" {
		t.Error("clone shares nodes with the original")
	}
}

func TestJoinsAndScans(t *testing.T) {
	p := twoJoin()
	if got := len(p.Joins()); got != 2 {
		t.Errorf("joins = %d, want 2", got)
	}
	var tables []string
	for _, s := range p.Scans() {
		tables = append(tables, s.Table)
	}
	if !slices.Equal(tables, []string{"A", "B", "C"}) {
		t.Errorf("scanned tables = %v, want [A B C]", tables)
	}
}

func TestStringRendering(t *testing.T) {
	p := twoJoin()
	s := p.String()
	for _, want := range []string{"display [client]", "join [inner relation]", "scan(A) [primary copy]"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	cat := testCatalog(t, 2)
	b, err := Bind(p, cat, catalog.Client)
	if err != nil {
		t.Fatal(err)
	}
	fb := FormatBound(p, b)
	if !strings.Contains(fb, "@ client") || !strings.Contains(fb, "@ server 0") {
		t.Errorf("bound rendering missing sites:\n%s", fb)
	}
}

// randomTree builds a random join tree over k scans with random hybrid
// annotations (possibly ill-formed).
func randomTree(rng *rand.Rand, k int) *Node {
	nodes := make([]*Node, k)
	tables := []string{"A", "B", "C", "D"}
	for i := range nodes {
		n := NewScan(tables[i%len(tables)])
		anns := AllowedAnnotations(KindScan, HybridShipping)
		n.Ann = anns[rng.Intn(len(anns))]
		// Ensure distinct table names don't matter for binding; duplicates
		// are fine since binding ignores join semantics.
		nodes[i] = n
	}
	for len(nodes) > 1 {
		i := rng.Intn(len(nodes) - 1)
		j := NewJoin(nodes[i], nodes[i+1])
		anns := AllowedAnnotations(KindJoin, HybridShipping)
		j.Ann = anns[rng.Intn(len(anns))]
		nodes = append(nodes[:i], append([]*Node{j}, nodes[i+2:]...)...)
	}
	return NewDisplay(nodes[0])
}

// Property: for any random hybrid-annotated tree, Bind either fails or
// produces a total binding where every operator's site is consistent with
// its annotation.
func TestQuickBindConsistency(t *testing.T) {
	cat := testCatalog(t, 3)
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%4) + 2
		p := randomTree(rng, k)
		b, err := Bind(p, cat, catalog.Client)
		if err != nil {
			return true // ill-formed plans may be rejected
		}
		parent := make(map[*Node]*Node)
		p.Walk(func(n *Node) {
			if n.Left != nil {
				parent[n.Left] = n
			}
			if n.Right != nil {
				parent[n.Right] = n
			}
		})
		ok := true
		nodes := 0
		p.Walk(func(n *Node) {
			nodes++
			id := nodeID(p, n)
			if id >= len(b) {
				ok = false
				return
			}
			site := b[id]
			switch {
			case n.Kind == KindDisplay:
				ok = ok && site == catalog.Client
			case n.Kind == KindScan && n.Ann == AnnClient:
				ok = ok && site == catalog.Client
			case n.Kind == KindScan && n.Ann == AnnPrimary:
				ok = ok && site == cat.MustRelation(n.Table).Home
			case n.Ann == AnnConsumer:
				ok = ok && site == b[nodeID(p, parent[n])]
			case n.Ann == AnnInner || (n.Kind == KindSelect && n.Ann == AnnProducer):
				ok = ok && site == b[nodeID(p, n.Left)]
			case n.Ann == AnnOuter:
				ok = ok && site == b[nodeID(p, n.Right)]
			}
		})
		return ok && nodes == len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: plans restricted to DS or QS annotations are always well-formed
// (only hybrid mixes can create consumer/producer cycles).
func TestQuickPurePoliciesAlwaysWellFormed(t *testing.T) {
	cat := testCatalog(t, 3)
	f := func(seed int64, kRaw uint8, useQS bool) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%4) + 2
		p := randomTree(rng, k)
		pol := DataShipping
		if useQS {
			pol = QueryShipping
		}
		p.Walk(func(n *Node) {
			anns := AllowedAnnotations(n.Kind, pol)
			n.Ann = anns[rng.Intn(len(anns))]
		})
		return WellFormed(p, cat, catalog.Client)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBinderWarmZeroAlloc gates the binder's reuse: rebinding a plan with a
// warm Binder allocates nothing.
func TestBinderWarmZeroAlloc(t *testing.T) {
	cat := testCatalog(t, 2)
	root := twoJoin()
	root.Left.Ann = AnnConsumer
	root.Left.Left.Ann = AnnOuter
	var bd Binder
	if _, err := bd.Bind(root, cat, catalog.Client); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := bd.Bind(root, cat, catalog.Client); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm Bind allocates %v per call, want 0", n)
	}
}

// TestBindErrorTexts pins every message a failed binding reports. Binder.Bind
// returns the ErrUnbindable sentinel for each of them, and both Binder.Err
// and the package-level Bind give the exact text. A structural error passes
// through Binder.Bind itself.
func TestBindErrorTexts(t *testing.T) {
	cat := testCatalog(t, 2)
	if err := cat.SetCopies("A", []catalog.SiteID{0, 1}); err != nil {
		t.Fatal(err)
	}
	scan := func(table string, ann Annotation, copyIdx int) *Node {
		s := NewScan(table)
		s.Ann, s.Copy = ann, copyIdx
		return s
	}
	cases := []struct {
		name string
		root *Node
		want string
	}{
		{"unknown relation", NewDisplay(scan("Z", AnnPrimary, 0)),
			`plan: scan of unknown relation "Z"`},
		{"copy beyond the replicas", NewDisplay(scan("A", AnnPrimary, 2)),
			`plan: scan of "A" names copy 2, but the relation has 2`},
		{"copy of an unreplicated relation", NewDisplay(scan("B", AnnPrimary, 1)),
			`plan: scan of "B" names copy 1, but the relation has 1`},
		{"scan annotation", NewDisplay(scan("B", AnnInner, 0)),
			`plan: scan of "B" has invalid annotation inner relation`},
		{"join annotation", NewDisplay(&Node{Kind: KindJoin, Ann: AnnPrimary,
			Left: scan("A", AnnPrimary, 0), Right: scan("B", AnnPrimary, 0)}),
			`plan: join has invalid annotation primary copy`},
		{"select annotation", NewDisplay(&Node{Kind: KindSelect, Ann: AnnOuter, Rel: "A",
			Left: scan("A", AnnPrimary, 0)}),
			`plan: select has invalid annotation outer relation`},
		{"two-node cycle", func() *Node {
			j := NewJoin(scan("A", AnnPrimary, 0), scan("B", AnnPrimary, 0))
			j.Ann = AnnConsumer
			sel := NewSelect(j, "A")
			return NewDisplay(sel) // select producer -> join, join consumer -> select
		}(), `plan: ill-formed: 2 operator(s) form an annotation cycle`},
		{"two cycles", func() *Node {
			low := NewJoin(scan("A", AnnPrimary, 0), scan("B", AnnPrimary, 0))
			low.Ann = AnnConsumer
			sel := NewSelect(low, "A")
			top := NewJoin(sel, NewSelect(scan("C", AnnPrimary, 0), "C"))
			top.Ann = AnnOuter
			top.Right.Ann = AnnConsumer
			return NewDisplay(top) // sel<->low, and top<->its right select
		}(), `plan: ill-formed: 4 operator(s) form an annotation cycle`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := tc.root.Clone()
			var bd Binder
			if _, err := bd.Bind(root, cat, catalog.Client); err != ErrUnbindable {
				t.Fatalf("Binder.Bind error %v, want ErrUnbindable", err)
			}
			if got := bd.Err(); got == nil || got.Error() != tc.want {
				t.Errorf("Binder.Err() = %v, want %q", got, tc.want)
			}
			if _, err := Bind(root, cat, catalog.Client); err == nil || err.Error() != tc.want {
				t.Errorf("Bind error = %v, want %q", err, tc.want)
			}
		})
	}

	var bd Binder
	if _, err := bd.Bind(NewJoin(NewScan("A"), NewScan("B")), cat, catalog.Client); err == nil ||
		err == ErrUnbindable || err.Error() != "plan: root must be display, got join" {
		t.Errorf("structural error = %v, want CheckStructure's", err)
	}
	if bd.Err() != nil {
		t.Errorf("Err() = %v after a structural failure, want nil", bd.Err())
	}
	if _, err := bd.Bind(twoJoin(), cat, catalog.Client); err != nil || bd.Err() != nil {
		t.Errorf("well-formed plan: Bind error %v, Err() %v", err, bd.Err())
	}
}
