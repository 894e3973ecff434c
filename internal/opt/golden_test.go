package opt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/cost"
	"hybridship/internal/plan"
	"hybridship/internal/workload"
)

// The estimate goldens pin the cost model and both optimizers bit for bit.
// testdata/estimate_golden.json records, for seeded random plans over a
// grid of catalogs, the Float64bits of every Estimate field, plus the
// winning plan key and estimate of Optimize and DP.Optimize per seed. A
// change to how the estimator accumulates, binds or looks up relations may
// not move a single bit of any of them.
//
// Regenerate only for a deliberate change to the cost model or the search:
//
//	go test ./internal/opt -run TestEstimateGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/estimate_golden.json from the current code")

const goldenPath = "testdata/estimate_golden.json"

// golden is the file's content.
type golden struct {
	Estimates map[string]goldenPlans  `json:"estimates"`
	Optimize  map[string]goldenWinner `json:"optimize"`
	DP        map[string]goldenWinner `json:"dp"`
}

// goldenPlans covers one catalog cell: the estimates of a few random plans,
// and a SHA-256 over a random move walk from each of them (every visited
// plan's key with its estimate bits, or a marker for an ill-formed one).
type goldenPlans struct {
	Plans    [][3]uint64 `json:"plans"`
	Walk     string      `json:"walk_sha256"`
	WalkLen  int         `json:"walk_len"`
	Invalid  int         `json:"walk_invalid"`
	CopyMove int         `json:"walk_copy_moves"`
}

// goldenWinner is one optimizer run's result.
type goldenWinner struct {
	Plan string    `json:"plan_key"`
	Bits [3]uint64 `json:"bits"`
}

func estBits(e cost.Estimate) [3]uint64 {
	return [3]uint64{math.Float64bits(e.TotalCost), math.Float64bits(e.ResponseTime), math.Float64bits(e.PagesSent)}
}

// goldenCell is one catalog configuration of the grid.
type goldenCell struct {
	ways, servers, cached, rf int
	util                      bool // set Params.ServerDiskUtil
	rich                      bool // selections and a grouped aggregate
	maxAlloc                  bool
}

func (c goldenCell) name() string {
	u, r := "idle", "plain"
	if c.util {
		u = "util"
	}
	if c.rich {
		r = "rich"
	}
	return fmt.Sprintf("w%d/s%d/c%d/%s/rf%d/%s/max=%v", c.ways, c.servers, c.cached, u, c.rf, r, c.maxAlloc)
}

// model builds the cell's catalog, query and cost parameters. Placement,
// replica placement and the disk-utilization map are all derived from seed.
func (c goldenCell) model(t testing.TB, seed int64) *cost.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cat, err := workload.BuildCatalog(4096, c.servers, workload.PlaceRandom(rng, c.ways, c.servers))
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.CacheFirstK(cat, c.cached); err != nil {
		t.Fatal(err)
	}
	if c.rf > 1 {
		if err := cat.ReplicateAll(c.rf, seed); err != nil {
			t.Fatal(err)
		}
	}
	q := workload.ChainQuery(c.ways, workload.Moderate)
	if c.rich {
		q.Selects = map[string]float64{workload.RelName(1): 0.5, workload.RelName(c.ways - 2): 0.1}
		q.GroupBy = 20
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultParams()
	p.MaxAlloc = c.maxAlloc
	if c.util {
		// A loaded server, the client's own disk, an out-of-range
		// utilization on each side (clamped), and a site no plan uses.
		p.ServerDiskUtil = map[catalog.SiteID]float64{
			0:              0.47,
			catalog.Client: 0.3,
			99:             0.5,
		}
		if c.servers > 1 {
			p.ServerDiskUtil[catalog.SiteID(c.servers-1)] = 1.5
		}
		if c.servers > 2 {
			p.ServerDiskUtil[catalog.SiteID(c.servers/2)] = -0.2
		}
	}
	return &cost.Model{Params: p, Catalog: cat, Query: q}
}

// estimateGrid is every policy over 1 to 10 servers, 0 and 5 cached
// relations, idle and loaded disks, RF 1 and 2, plain and rich queries.
func estimateGrid() []goldenCell {
	var cells []goldenCell
	for servers := 1; servers <= 10; servers++ {
		for _, cached := range []int{0, 5} {
			for _, util := range []bool{false, true} {
				for _, rf := range []int{1, 2} {
					if rf > servers {
						continue
					}
					for _, rich := range []bool{false, true} {
						cells = append(cells, goldenCell{ways: 10, servers: servers, cached: cached, rf: rf,
							util: util, rich: rich, maxAlloc: servers%2 == 0})
					}
				}
			}
		}
	}
	return cells
}

// optimizeGrid is the cells both optimizers run on: 6-way queries (DP's
// subset enumeration stays cheap) plus two 10-way cells for the randomized
// optimizer, where the paper's study runs it.
func optimizeGrid() (six, ten []goldenCell) {
	six = []goldenCell{
		{ways: 6, servers: 1, cached: 0, rf: 1},
		{ways: 6, servers: 3, cached: 3, rf: 1, util: true, rich: true},
		{ways: 6, servers: 6, cached: 0, rf: 2, util: true, maxAlloc: true},
		{ways: 6, servers: 4, cached: 3, rf: 2, rich: true},
	}
	ten = []goldenCell{
		{ways: 10, servers: 10, cached: 5, rf: 1, util: true},
		{ways: 10, servers: 5, cached: 0, rf: 2, rich: true},
	}
	return six, ten
}

var (
	goldenPolicies = []plan.Policy{plan.DataShipping, plan.QueryShipping, plan.HybridShipping}
	goldenMetrics  = []cost.Metric{cost.MetricTotalCost, cost.MetricResponseTime}
)

// randomCopies points each primary-annotated scan at a random replica, so
// the estimates cover scans bound to secondaries.
func randomCopies(rng *rand.Rand, root *plan.Node, cat *catalog.Catalog) {
	root.Walk(func(n *plan.Node) {
		if n.Kind == plan.KindScan && n.Ann == plan.AnnPrimary {
			n.Copy = rng.Intn(cat.MustRelation(n.Table).NumCopies())
		}
	})
}

// measureEstimates computes one grid cell's goldenPlans.
func measureEstimates(t *testing.T, c goldenCell, pol plan.Policy, seed int64) goldenPlans {
	t.Helper()
	m := c.model(t, seed)
	o := New(m, DefaultOptions(pol, cost.MetricResponseTime, seed))
	rng := rand.New(rand.NewSource(seed))
	estimate := func(root *plan.Node) (cost.Estimate, bool) {
		b, err := plan.Bind(root, m.Catalog, catalog.Client)
		if err != nil {
			return cost.Estimate{}, false
		}
		return m.Estimate(root, b), true
	}
	var out goldenPlans
	h := sha256.New()
	var buf []byte
	for i := 0; i < 3; i++ {
		r, err := o.RandomPlan()
		if err != nil {
			t.Fatal(err)
		}
		randomCopies(rng, r.Plan, m.Catalog)
		e, ok := estimate(r.Plan)
		if !ok {
			t.Fatalf("%s: random plan does not bind", c.name())
		}
		out.Plans = append(out.Plans, estBits(e))

		// A random walk over in-place moves, as the search takes them.
		var f plan.Flat
		if err := f.Reset(r.Plan, m.Catalog); err != nil {
			t.Fatal(err)
		}
		mask := subtreeMasks(&f, o.bits, nil)
		var u undoRec
		for step := 0; step < 12; step++ {
			moves := candidateMoves(m.Query, o.opts, m.Catalog, &f, mask, nil)
			if len(moves) == 0 {
				break
			}
			mv := moves[rng.Intn(len(moves))]
			if mv.kind == mvScanCopy {
				out.CopyMove++
			}
			applyMove(&f, mask, mv, pol, m.Catalog, &u)
			f.Order()
			root := f.Tree()
			buf = appendKey(buf[:0], root)
			if e, ok := estimate(root); ok {
				for _, v := range estBits(e) {
					buf = binary.LittleEndian.AppendUint64(buf, v)
				}
			} else {
				buf = append(buf, "ill-formed"...)
				out.Invalid++
			}
			h.Write(buf)
			out.WalkLen++
		}
	}
	out.Walk = hex.EncodeToString(h.Sum(nil))
	return out
}

func winner(r Result) goldenWinner {
	return goldenWinner{Plan: hex.EncodeToString(appendKey(nil, r.Plan)), Bits: estBits(r.Estimate)}
}

// appendKey appends the golden's encoding of the subtree's shape and
// annotations to buf: per node in pre-order, kind<<4|annotation, then for
// a scan its copy index and relation name and for a select its relation
// name, each name 0-terminated.
func appendKey(buf []byte, n *plan.Node) []byte {
	if n == nil {
		return buf
	}
	buf = append(buf, byte(n.Kind)<<4|byte(n.Ann))
	switch n.Kind {
	case plan.KindScan:
		buf = append(buf, byte(n.Copy))
		buf = append(buf, n.Table...)
		buf = append(buf, 0)
	case plan.KindSelect:
		buf = append(buf, n.Rel...)
		buf = append(buf, 0)
	}
	buf = appendKey(buf, n.Left)
	return appendKey(buf, n.Right)
}

// measureGolden computes the whole golden from the current code.
func measureGolden(t *testing.T) golden {
	t.Helper()
	g := golden{Estimates: map[string]goldenPlans{}, Optimize: map[string]goldenWinner{}, DP: map[string]goldenWinner{}}
	for i, c := range estimateGrid() {
		for _, pol := range goldenPolicies {
			seed := int64(1000 + i)
			g.Estimates[fmt.Sprintf("%v/%s", pol, c.name())] = measureEstimates(t, c, pol, seed)
		}
	}
	six, ten := optimizeGrid()
	for i, c := range append(six, ten...) {
		seed := int64(2000 + i)
		for _, pol := range goldenPolicies {
			for _, metric := range goldenMetrics {
				if c.ways == 10 && pol != plan.HybridShipping {
					continue
				}
				key := fmt.Sprintf("%v/%v/%s/seed=%d", pol, metric, c.name(), seed)
				m := c.model(t, seed)
				r, err := New(m, DefaultOptions(pol, metric, seed)).Optimize()
				if err != nil {
					t.Fatalf("%s: Optimize: %v", key, err)
				}
				g.Optimize[key] = winner(r)
				if c.ways > 6 {
					continue
				}
				d, err := NewDP(m, DPOptions{Policy: pol, Metric: metric}).Optimize()
				if err != nil {
					t.Fatalf("%s: DP: %v", key, err)
				}
				g.DP[key] = winner(d)
			}
		}
	}
	return g
}

// TestEstimateGolden recomputes every golden entry and requires each to
// match the recorded one exactly.
func TestEstimateGolden(t *testing.T) {
	got := measureGolden(t)
	if *updateGolden {
		enc, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want golden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "estimates", got.Estimates, want.Estimates, func(a, b goldenPlans) bool {
		return fmt.Sprint(a) == fmt.Sprint(b)
	})
	same := func(a, b goldenWinner) bool { return a == b }
	compareGolden(t, "optimize", got.Optimize, want.Optimize, same)
	compareGolden(t, "dp", got.DP, want.DP, same)
}

// compareGolden reports every key, in sorted order, whose entry is missing,
// extra or different.
func compareGolden[V any](t *testing.T, kind string, got, want map[string]V, same func(a, b V) bool) {
	t.Helper()
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, gok := got[k]
		w, wok := want[k]
		switch {
		case !wok:
			t.Errorf("%s %s: not in the golden", kind, k)
		case !gok:
			t.Errorf("%s %s: not computed", kind, k)
		case !same(g, w):
			t.Errorf("%s %s:\n got %+v\nwant %+v", kind, k, g, w)
		}
	}
}
