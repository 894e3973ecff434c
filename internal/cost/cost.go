// Package cost implements the optimizer's analytic cost model (§3.1.2).
//
// Total-cost estimates follow the style of Mackert and Lohman's R* model:
// the sum, over all operators, of CPU, disk, and communication resource
// consumption. Response-time estimates follow Ganguly, Hasan and
// Krishnamurthy: pipelined producer/consumer operators overlap, independent
// subtrees run in parallel, and the final response time is bounded below by
// the busiest single resource. Hybrid-hash-join memory behaviour (minimum and
// maximum allocations) follows Shapiro.
//
// The model deliberately shares the paper's idealization that communication
// fully overlaps with processing; §4.2.3 of the paper observes (and our
// EXPERIMENTS.md confirms) that the simulator rarely attains this.
package cost

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"hybridship/internal/catalog"
	"hybridship/internal/machine"
	"hybridship/internal/plan"
	"hybridship/internal/query"
)

// Params configures the cost model: Table 2 of the paper, shared with the
// simulator, plus the per-page disk times, which are the calibration
// aggregates of §4.1 (obtained from separate simulation runs, exactly as the
// paper did).
type Params struct {
	machine.Params

	SeqPageTime  float64 // seconds per sequential page I/O (calibrated)
	RandPageTime float64 // seconds per random page I/O (calibrated)
	// Spill I/O prices reflect the disk's write-back cache and batched
	// destaging: partition writes and partition-sequential re-reads run
	// much closer to sequential than to random speed. Calibrated against
	// the simulator like the two rates above.
	SpillWriteTime float64
	SpillReadTime  float64

	// ServerDiskUtil is the utilization of each server's disk due to
	// external load (multi-client contention, §4.2.2). Disk service times at
	// a loaded server are inflated by 1/(1-u).
	ServerDiskUtil map[catalog.SiteID]float64
}

// DefaultParams returns the Table 2 defaults with the §4.1 disk calibration.
func DefaultParams() Params {
	return Params{
		Params:         machine.DefaultParams(),
		SeqPageTime:    0.0035,
		RandPageTime:   0.0118,
		SpillWriteTime: 0.0045,
		SpillReadTime:  0.0035,
	}
}

// SetServerLoad sets ServerDiskUtil from the external load on each server,
// in random page reads per second (§4.2.2): a rate keeps the disk busy
// rate × RandPageTime of the time, capped at 0.95. An empty load leaves
// ServerDiskUtil unset.
func (p *Params) SetServerLoad(load map[catalog.SiteID]float64) {
	if len(load) == 0 {
		return
	}
	p.ServerDiskUtil = make(map[catalog.SiteID]float64, len(load))
	for s, rate := range load {
		u := rate * p.RandPageTime
		if u > 0.95 {
			u = 0.95
		}
		p.ServerDiskUtil[s] = u
	}
}

func (p Params) wireTime(bytes int) float64 {
	return float64(bytes) * 8 / p.NetBw
}

// clampUtil bounds an external disk utilization to [0, 0.99].
func clampUtil(u float64) float64 {
	switch {
	case u < 0:
		return 0
	case u > 0.99:
		return 0.99
	default:
		return u
	}
}

// Estimate is the optimizer's prediction for a bound plan.
type Estimate struct {
	TotalCost    float64 // sum of all resource consumption, seconds
	ResponseTime float64 // predicted elapsed time, seconds
	PagesSent    float64 // data pages crossing the network
}

// Metric selects which prediction the optimizer minimizes.
type Metric int

const (
	MetricTotalCost Metric = iota
	MetricResponseTime
	MetricPagesSent
)

func (m Metric) String() string {
	switch m {
	case MetricTotalCost:
		return "total-cost"
	case MetricResponseTime:
		return "response-time"
	case MetricPagesSent:
		return "pages-sent"
	}
	return "metric(?)"
}

// Value extracts the metric from an estimate.
func (e Estimate) Value(m Metric) float64 {
	switch m {
	case MetricTotalCost:
		return e.TotalCost
	case MetricResponseTime:
		return e.ResponseTime
	case MetricPagesSent:
		return e.PagesSent
	}
	return e.TotalCost
}

// Model evaluates plans for one query against one catalog.
type Model struct {
	Params  Params
	Catalog *catalog.Catalog
	Query   *query.Query
}

// facts are what a node hands its parent: its output and the site that
// produces it.
type facts struct {
	card       float64 // output cardinality, tuples
	pages      float64 // output size in pages
	rt         float64 // completion time of this node's output (needAll only)
	tupleBytes int
	tables     uint64 // base-relation bitmask (Query.RelMask)
	site       catalog.SiteID
}

// change classifies how a node's facts moved in one pass, and so how much
// of its parent must be recomputed: all of it after a shape change, its
// charges and rt terms after a site change, and its rt alone (from its
// rtTerms) after an rt change.
type change uint8

const (
	unchanged    change = iota
	rtChanged           // only rt differs
	siteChanged         // the site differs, and maybe rt
	shapeChanged        // the cardinality, pages, tuple width or relations differ
)

// diff classifies the change from old to a, bit for bit.
func (a *facts) diff(old *facts) change {
	switch {
	case math.Float64bits(a.card) != math.Float64bits(old.card) ||
		math.Float64bits(a.pages) != math.Float64bits(old.pages) ||
		a.tupleBytes != old.tupleBytes || a.tables != old.tables:
		return shapeChanged
	case a.site != old.site:
		return siteChanged
	case math.Float64bits(a.rt) != math.Float64bits(old.rt):
		return rtChanged
	}
	return unchanged
}

// The accumulators are one slice: the wire, the pages sent, and then each
// site's CPU and disk interleaved by slot (site+1, so the client is slot 0),
// so that growing the site tables never moves an accumulator.
const (
	toWire  = 0
	toPages = 1
)

func cpuAt(s catalog.SiteID) int32  { return int32(2 + 2*slot(s)) }
func diskAt(s catalog.SiteID) int32 { return int32(3 + 2*slot(s)) }

// slot is the per-site table index of a site.
func slot(s catalog.SiteID) int { return int(s) + 1 }

// charge is one addition a node makes to one accumulator.
type charge struct {
	to int32
	v  float64
}

// maxCharges is the most charges one node makes: a join ships both inputs
// (four charges each), then charges its CPU and, under the minimum
// allocation, its spill disk and CPU.
const maxCharges = 11

// charges are the additions one node makes, in the order it makes them.
type charges struct {
	n  int
	ch [maxCharges]charge
}

// link is the part of a node's record that the change walk reads: the
// inputs and the site its facts and charges were computed for.
type link struct {
	left, right int32
	site        catalog.SiteID
	known       bool // the record is valid for left, right and site
}

// node is the rest of the estimator's record of one plan node: the facts
// it hands its parent and the terms its charges and rt were combined from.
type node struct {
	facts
	shapeTerms
	rtTerms
}

// shapeTerms are the parts of a node's charges that depend only on its
// shape facts and its inputs', so that a site change alone recomputes
// neither: a unary node's CPU time, and a join's build and probe CPU times
// and the pages of each input it spills. A join also keeps the selectivity
// of the predicates between its inputs' relations, which a reshaping below
// it seldom changes.
type shapeTerms struct {
	cpu, probeCPU     float64
	spillIn, spillOut float64
	sel               float64
	selL, selO        uint64 // the relations sel is for
}

// rtTerms are the parts of a node's rt that do not depend on its
// children's rt, so that a change in a child's rt alone recomputes rt from
// them with the same operations in the same order (see rtOf).
type rtTerms struct {
	a, b, c        float64
	colocL, colocR bool // a join's input is produced at the join's site
}

// add makes the charge (to, v): it appends it to ch, or adds it to its
// accumulator at once when ch is nil. A zero charge is left out: added to
// an accumulator, which starts at +0.0 and only grows, it would change no
// bit.
func (e *Estimator) add(ch *charges, to int32, v float64) {
	if v == 0 {
		return
	}
	if ch == nil {
		e.acc[to] += v
		return
	}
	ch.ch[ch.n] = charge{to, v}
	ch.n++
}

// need is how much of the model a metric reads. Cardinalities, pages and
// the pages-sent charges are always computed; needCharges adds the CPU,
// disk and wire charges; needAll adds the response-time arithmetic.
type need uint8

const (
	needPages need = iota
	needCharges
	needAll
)

// needFor is what Estimate.Value(m) reads.
func needFor(m Metric) need {
	switch m {
	case MetricPagesSent:
		return needPages
	case MetricResponseTime:
		return needAll
	}
	return needCharges
}

// Estimate predicts the execution of a plan whose annotations have been
// bound to sites, one per node in pre-order.
func (m *Model) Estimate(root *plan.Node, binding plan.Binding) Estimate {
	return NewEstimator(m).Estimate(root, binding)
}

// relFacts is what a scan or a selection needs to know about one base
// relation, resolved from the catalog and the query once per Estimator.
// Estimator.rels holds them in catalog order, so the relation with
// catalog.RelID id is rels[id-1].
type relFacts struct {
	pages      float64 // pages at the model's page size
	card       float64 // tuples
	tupleBytes int
	home       catalog.SiteID
	cached     float64 // pages cached at the client, at most pages
	mask       uint64  // the query's bit for the relation (0 if none)
	sel        float64 // selectivity of the selection above its scan
	// CPU time of the disk requests reading every page, and the cached ones
	scanCPU, cachedCPU float64
}

// siteDisk holds one site's per-page disk times, each inflated by the
// site's clamped external utilization u to raw / (1 - u).
type siteDisk struct {
	seq, spillWrite, spillRead float64
}

// Estimator evaluates plans of one Model repeatedly. It resolves the
// model's relation facts, each site's load-inflated disk times and the
// per-message CPU and wire times once, and reuses its per-node records and
// accumulators, so a search loop evaluating candidate after candidate
// allocates nothing and consults no map.
//
// Estimate evaluates a tree in one post-order pass that adds each node's
// charges as it makes them and keeps no record. Value and EstimateFlat
// evaluate a flat plan as a delta from the last plan they evaluated, when
// that was the same Flat (same generation) evaluated for the same need
// (see run): only the nodes whose site or children changed are visited,
// and then the ancestors their change reaches; a recomputed node whose
// facts come out bit-equal stops the change from travelling further up.
// The charges are then re-added in post-order, so each sum is formed from
// the same operands in the order a recursive evaluation adds them, and the
// result is bit-identical to evaluating the plan from scratch. The model
// must not change while the Estimator is in use.
type Estimator struct {
	m    *Model
	rels []relFacts
	disk []siteDisk // per slot

	// Per-message constants: the endpoint CPU time and wireTime of a data page
	// and of a control message, and the CPU time of one disk request.
	pageCPU, pageWire float64
	ctrlCPU, ctrlWire float64
	ioCPU             float64

	flat plan.Flat // Estimate's flattening of a tree
	acc  []float64 // see toWire

	// The delta state, by node ID of the plan last evaluated (see run).
	links []link
	nodes []node
	chs   []charges
	flags []flags  // by node ID, during run
	visit []uint64 // a set of post-order positions, during run
	busy  float64  // the busiest resource's time, for the sums in acc
	of    *plan.Flat
	gen   uint64
	need  need
}

// flags are one node's state in one pass of run: how its facts changed,
// and whether its charges were recomputed.
type flags uint8

const (
	changeBits flags = 3 // a change
	charged    flags = 4
)

// NewEstimator resolves m's relation facts, disk times and message
// constants. The estimator serves m alone.
func NewEstimator(m *Model) *Estimator {
	p := &m.Params
	names := m.Catalog.Relations()
	e := &Estimator{
		m: m, rels: make([]relFacts, 0, len(names)),
		pageCPU: p.CPUTime(p.MsgInstr(p.PageSize)), pageWire: p.wireTime(p.PageSize),
		ctrlCPU: p.CPUTime(p.MsgInstr(machine.CtrlMsgBytes)), ctrlWire: p.wireTime(machine.CtrlMsgBytes),
		ioCPU: p.CPUTime(p.DiskInst),
	}
	hi := catalog.SiteID(m.Catalog.NumServers - 1)
	e.disk = make([]siteDisk, 0, slot(hi)+1)
	for _, name := range names {
		rel := m.Catalog.MustRelation(name)
		pages := float64(rel.Pages(m.Params.PageSize))
		cached := float64(m.Catalog.CachedPages(name))
		if cached > pages {
			cached = pages
		}
		e.rels = append(e.rels, relFacts{
			pages:      pages,
			card:       float64(rel.Tuples),
			tupleBytes: rel.TupleBytes,
			home:       rel.Home,
			cached:     cached,
			mask:       m.Query.RelMask(name),
			sel:        m.Query.SelectSelectivity(name),
			scanCPU:    p.CPUTime(p.DiskInst * pages),
			cachedCPU:  p.CPUTime(p.DiskInst * cached),
		})
		for i := 0; i < rel.NumCopies(); i++ {
			hi = max(hi, rel.CopySite(i))
		}
	}
	e.grow(hi)
	return e
}

// grow extends the per-site tables to cover sites up to hi.
func (e *Estimator) grow(hi catalog.SiteID) {
	p := &e.m.Params
	for s := catalog.SiteID(len(e.disk) - 1); s <= hi; s++ {
		idle := 1 - clampUtil(p.ServerDiskUtil[s])
		e.disk = append(e.disk, siteDisk{
			seq:        p.SeqPageTime / idle,
			spillWrite: p.SpillWriteTime / idle,
			spillRead:  p.SpillReadTime / idle,
		})
	}
}

// place checks that the site s can hold an operator and extends the
// per-site tables to cover it.
func (e *Estimator) place(s catalog.SiteID) {
	if s < catalog.Client {
		panic(fmt.Sprintf("cost: site %d is below the client", s))
	}
	if slot(s) >= len(e.disk) {
		e.grow(s)
	}
}

// width is the number of accumulators.
func (e *Estimator) width() int { return 2 + 2*len(e.disk) }

// Estimate predicts the execution of root with sites[i] the site of the
// i-th node in pre-order (the order of plan.Node.Walk), as plan.Binder
// produces them. It keeps no per-node record, and it leaves Value's next
// pass to evaluate its plan whole.
func (e *Estimator) Estimate(root *plan.Node, sites []catalog.SiteID) Estimate {
	if err := e.flat.Reset(root, e.m.Catalog); err != nil {
		panic("cost: " + err.Error())
	}
	f := &e.flat
	if len(sites) != len(f.Nodes) {
		panic(fmt.Sprintf("cost: %d sites for a plan of %d nodes", len(sites), len(f.Nodes)))
	}
	for _, s := range sites {
		e.place(s)
	}
	e.of = nil // acc no longer holds the delta state's sums
	e.acc = slices.Grow(e.acc[:0], e.width())[:e.width()]
	clear(e.acc)
	out := e.once(f, sites, 0)
	return Estimate{TotalCost: e.total(), ResponseTime: max(out.rt, e.busiest()), PagesSent: e.acc[toPages]}
}

// once evaluates node i's subtree in post-order, adding every charge to the
// accumulators as it is made, and returns node i's facts.
func (e *Estimator) once(f *plan.Flat, sites []catalog.SiteID, i int32) facts {
	row := &f.Nodes[i]
	var l, o facts
	var lp, op *facts
	if row.Left >= 0 {
		l = e.once(f, sites, row.Left)
		lp = &l
	}
	if row.Right >= 0 {
		o = e.once(f, sites, row.Right)
		op = &o
	}
	var r node
	e.eval(f, i, &r, nil, sites[i], lp, op, needAll, true)
	return r.facts
}

// EstimateFlat predicts the execution of the flat plan f, whose relation
// IDs come from the model's catalog and whose Post is current, with
// sites[i] the site of node i, as plan.Binder.BindFlat produces them. It
// evaluates every node.
func (e *Estimator) EstimateFlat(f *plan.Flat, sites []catalog.SiteID) Estimate {
	e.of = nil
	e.run(f, sites, needAll, nil)
	return Estimate{TotalCost: e.total(), ResponseTime: max(e.nodes[0].rt, e.busy), PagesSent: e.acc[toPages]}
}

// Value is the metric m of the flat plan f, whose relation IDs come from
// the model's catalog and whose Post is current, with sites[i] the site of
// node i. It computes only what the metric reads: pages sent need no CPU,
// disk or response-time arithmetic, and total cost needs no response time.
//
// If f is the plan this Estimator last evaluated for the same metric need,
// edited since, changed must list every node whose children or site the
// edit changed; only they and their ancestors are visited. Any other plan
// is evaluated whole.
func (e *Estimator) Value(f *plan.Flat, sites []catalog.SiteID, changed []int32, m Metric) float64 {
	need := needFor(m)
	e.run(f, sites, need, changed)
	switch need {
	case needPages:
		return e.acc[toPages]
	case needAll:
		return max(e.nodes[0].rt, e.busy)
	}
	return e.total()
}

// Sums returns the accumulators of the plan last evaluated: the wire, the
// pages sent, and then each site's CPU and disk by site, client first. Two
// evaluations of one plan for one metric give equal sums bit for bit. The
// slice aliases the Estimator's storage.
func (e *Estimator) Sums() []float64 { return e.acc }

// run brings the node records up to date for f and sites and re-adds the
// charges. It visits, in post-order, the nodes of changed and every node
// whose child's facts changed in this pass, so a change travels up only as
// far as it moves facts. If a visited node's charges were recomputed, it
// re-adds every charge in post-order; otherwise the sums stand.
//
// The fold does not restart at the first position whose charges changed:
// that position averages a third of the way into a 10-way plan's 20, and
// keeping what a restart needs (the sums before each position, or the sum
// each charge found) cost more stores than the restart saved additions in
// each form tried (see DESIGN.md §6).
func (e *Estimator) run(f *plan.Flat, sites []catalog.SiteID, need need, changed []int32) {
	n := len(f.Nodes)
	if len(sites) != n {
		panic(fmt.Sprintf("cost: %d sites for a plan of %d nodes", len(sites), n))
	}
	full := e.of != f || e.gen != f.Generation() || e.need != need || len(e.links) != n
	if !full {
		for _, i := range changed {
			e.place(sites[i])
		}
		full = len(e.acc) != e.width() // a new site widened the sums
	}
	if full {
		for _, s := range sites {
			e.place(s)
		}
		w := e.width()
		e.of, e.gen, e.need = f, f.Generation(), need
		e.links = slices.Grow(e.links[:0], n)[:n]
		e.nodes = slices.Grow(e.nodes[:0], n)[:n]
		e.chs = slices.Grow(e.chs[:0], n)[:n]
		e.flags = slices.Grow(e.flags[:0], n)[:n]
		e.visit = slices.Grow(e.visit[:0], (n+63)/64)[:(n+63)/64]
		e.acc = slices.Grow(e.acc[:0], w)[:w]
		clear(e.flags)
		clear(e.visit)
		clear(e.acc)
		for i := range e.links {
			e.links[i].known = false
		}
		changed = f.Post
	}

	// Visit the positions in visit, lowest first; a node whose facts
	// changed adds its parent's, which comes later.
	visit, pos, state := e.visit, f.PostPos, e.flags
	for _, i := range changed {
		p := pos[i]
		visit[p>>6] |= 1 << (p & 63)
	}
	recharged := false
	for w := int32(0); w < int32(len(visit)); {
		if visit[w] == 0 {
			w++
			continue
		}
		q := w<<6 | int32(bits.TrailingZeros64(visit[w]))
		visit[w] &^= 1 << (q & 63)
		i := f.Post[q]
		fl := e.update(f, i, sites[i], need)
		state[i] = fl
		recharged = recharged || fl&charged != 0
		if p := f.Nodes[i].Parent; p >= 0 && fl&changeBits != 0 {
			p = pos[p]
			visit[p>>6] |= 1 << (p & 63)
		}
	}
	clear(state)
	if !recharged {
		return // no charge changed, and so no node moved
	}

	// Re-add every charge in post-order, as a recursive evaluation adds
	// them.
	acc := e.acc
	clear(acc)
	for _, i := range f.Post {
		ch := &e.chs[i]
		for _, c := range ch.ch[:ch.n] {
			acc[c.to] += c.v
		}
	}
	if need == needAll {
		e.busy = e.busiest()
	}
}

// update recomputes what changed of node i, now bound to site, from its
// children's flags and its record, and returns its flags.
func (e *Estimator) update(f *plan.Flat, i int32, site catalog.SiteID, need need) flags {
	row, h, r := &f.Nodes[i], &e.links[i], &e.nodes[i]
	cl, cr := unchanged, unchanged
	var l, o *facts
	if row.Left >= 0 {
		cl, l = change(e.flags[row.Left]&changeBits), &e.nodes[row.Left].facts
	}
	if row.Right >= 0 {
		cr, o = change(e.flags[row.Right]&changeBits), &e.nodes[row.Right].facts
	}
	relinked := h.left != row.Left || h.right != row.Right
	switch {
	case !h.known || relinked || h.site != site || max(cl, cr) >= siteChanged:
		old, known := r.facts, h.known
		*h = link{left: row.Left, right: row.Right, site: site, known: true}
		ch := &e.chs[i]
		ch.n = 0
		e.eval(f, i, r, ch, site, l, o, need, !known || relinked || max(cl, cr) == shapeChanged)
		if !known {
			return flags(shapeChanged) | charged
		}
		return flags(r.facts.diff(&old)) | charged
	case cl == rtChanged || cr == rtChanged:
		old := r.rt
		r.rt = e.rtOf(row, r, l, o)
		if math.Float64bits(r.rt) != math.Float64bits(old) {
			return flags(rtChanged)
		}
	}
	return flags(unchanged)
}

// total sums all resource consumption: the wire, then every site's CPU and
// then every site's disk in ascending site order, so floating-point
// rounding is identical across runs. A site with no work adds +0.0, which
// leaves the sum exactly unchanged.
func (e *Estimator) total() float64 {
	t := e.acc[toWire]
	for i := 2; i < len(e.acc); i += 2 {
		t += e.acc[i]
	}
	for i := 3; i < len(e.acc); i += 2 {
		t += e.acc[i]
	}
	return t
}

// busiest is the time of the busiest single resource, which bounds the
// response time below. It uses the builtin max, which agrees with math.Max
// for the non-NaN values the model produces.
func (e *Estimator) busiest() float64 {
	// max is exact, commutative and associative, so running the CPU and
	// the disk maxima apart, and taking the root's rt in last, gives the
	// same bits as one running maximum.
	acc := e.acc
	mc, md := acc[toWire], acc[diskAt(catalog.Client)]
	if disks := e.m.Params.NumDisks; disks > 1 {
		// A site's disk work spreads over its arms in the best case.
		md /= float64(disks)
		for i := 2; i+1 < len(acc); i += 2 {
			mc, md = max(mc, acc[i]), max(md, acc[i+1]/float64(disks))
		}
	} else {
		for i := 2; i+1 < len(acc); i += 2 {
			mc, md = max(mc, acc[i]), max(md, acc[i+1])
		}
	}
	return max(mc, md)
}

// selectivity is Query.SelectSelectivity of the select at node i.
func (e *Estimator) selectivity(f *plan.Flat, i int32) float64 {
	if rel := f.Nodes[i].Rel; rel != 0 {
		return e.rels[rel-1].sel
	}
	return e.m.Query.SelectSelectivity(f.Src[i].Rel)
}

func pagesOf(card float64, tupleBytes, pageSize int) float64 {
	if card <= 0 {
		return 0
	}
	perPage := float64(pageSize / tupleBytes)
	if perPage < 1 {
		perPage = 1
	}
	return math.Ceil(card / perPage)
}

// ship charges ch for moving pages data pages from one site to another and
// returns the pipeline stage duration.
func (e *Estimator) ship(ch *charges, from, to catalog.SiteID, pages float64, need need) float64 {
	if from == to || pages <= 0 {
		return 0
	}
	if need >= needCharges {
		e.add(ch, cpuAt(from), e.pageCPU*pages)
		e.add(ch, cpuAt(to), e.pageCPU*pages)
		e.add(ch, toWire, e.pageWire*pages)
	}
	e.add(ch, toPages, pages)
	// The shipping stage streams pages; its duration is bounded by the
	// slower of the wire and the two endpoint CPUs for this stream.
	return pages * max(e.pageWire, e.pageCPU)
}

// eval recomputes node i's record r for the site, from its left and right
// inputs' facts l and o (nil where it has none), making its charges into
// ch. Its shape facts (cardinality, pages, tuple width, relations) depend
// only on its inputs', so unless shape is set they stand as last computed;
// its charges and rt terms are always recomputed.
func (e *Estimator) eval(f *plan.Flat, i int32, r *node, ch *charges, site catalog.SiteID, l, o *facts, need need, shape bool) {
	row := &f.Nodes[i]
	r.site = site
	if shape {
		e.shape(f, i, r, l, o)
	}
	switch row.Kind {
	case plan.KindScan:
		e.placeScan(f, i, r, ch, need)
		return
	case plan.KindJoin:
		e.placeJoin(r, ch, l, o, need)
	default:
		shipDur := e.ship(ch, l.site, site, l.pages, need)
		if need < needCharges {
			break
		}
		cpu := r.cpu
		e.add(ch, cpuAt(site), cpu)
		if row.Kind == plan.KindAgg {
			r.a, r.b = shipDur, cpu
		} else {
			r.a = max(shipDur, cpu)
		}
	}
	if need == needAll {
		r.rt = e.rtOf(row, r, l, o)
	}
}

// shape recomputes the shape facts of node i, into r, from its left and
// right inputs' (nil where it has none).
func (e *Estimator) shape(f *plan.Flat, i int32, r *node, l, o *facts) {
	m, p := e.m, &e.m.Params
	switch f.Nodes[i].Kind {
	case plan.KindScan:
		id := f.Nodes[i].Rel
		if id == 0 {
			panic("cost: scan of unknown relation " + f.Src[i].Table)
		}
		rel := &e.rels[id-1]
		r.card, r.tupleBytes, r.pages, r.tables = rel.card, rel.tupleBytes, rel.pages, rel.mask
	case plan.KindSelect:
		card := l.card * e.selectivity(f, i)
		r.card, r.tupleBytes, r.pages, r.tables = card, l.tupleBytes, pagesOf(card, l.tupleBytes, p.PageSize), l.tables
		r.cpu = p.CPUTime(p.CompareInst * l.card)
	case plan.KindAgg:
		card := float64(m.Query.GroupBy)
		if card <= 0 || card > l.card {
			card = min(1, l.card)
			if m.Query.GroupBy > 0 {
				card = min(float64(m.Query.GroupBy), l.card)
			}
		}
		r.card, r.tupleBytes, r.pages, r.tables = card, l.tupleBytes, pagesOf(card, l.tupleBytes, p.PageSize), l.tables
		r.cpu = p.CPUTime(p.HashInst * l.card)
	case plan.KindDisplay:
		r.card, r.tupleBytes, r.pages, r.tables = l.card, l.tupleBytes, l.pages, l.tables
		r.cpu = p.CPUTime(p.DisplayInst * l.card)
	case plan.KindJoin:
		if r.sel == 0 || r.selL != l.tables || r.selO != o.tables {
			r.sel, r.selL, r.selO = m.Query.JoinSelectivity(l.tables, o.tables), l.tables, o.tables
		}
		card := l.card * o.card * r.sel
		bytes := m.Query.ResultTupleBytes
		r.card, r.tupleBytes, r.pages, r.tables = card, bytes, pagesOf(card, bytes, p.PageSize), l.tables|o.tables
		// CPU: hash each input tuple once, move each result tuple.
		r.cpu = p.CPUTime(p.HashInst * l.card)
		r.probeCPU = p.CPUTime(p.HashInst*o.card + p.MoveInst*(float64(bytes)/4)*card)
		// Temporary I/O per Shapiro: with the maximum allocation the
		// inner's hash table is memory resident; with the minimum
		// allocation all but a memory-sized slice of both inputs is
		// written to and re-read from the join site's disk.
		if !p.MaxAlloc {
			fn := p.FudgeF * l.pages
			mem := math.Ceil(math.Sqrt(fn))
			q := 0.0
			if fn > 0 {
				q = mem / fn
			}
			if q > 1 {
				q = 1
			}
			r.spillIn, r.spillOut = (1-q)*l.pages, (1-q)*o.pages
		}
	default:
		panic("cost: unknown node kind")
	}
}

// rtOf is the response time of the non-scan node r from its rtTerms and
// its inputs' rt (o is nil but for a join).
func (e *Estimator) rtOf(row *plan.FlatNode, r *node, l, o *facts) float64 {
	switch row.Kind {
	case plan.KindJoin:
		// The build blocks on the inner and the probe pipelines with the
		// outer; see placeJoin.
		buildDur, probeDur := max(l.rt, r.a), 0.0
		if r.colocL {
			buildDur = l.rt + r.a
		}
		if r.colocR {
			probeDur = o.rt + r.b
		} else {
			probeDur = max(o.rt, r.b)
		}
		return buildDur + probeDur + r.c
	case plan.KindAgg:
		// Aggregation is blocking: its (small) output appears only after
		// the whole input has been consumed.
		return max(l.rt, r.a) + r.b
	}
	return max(l.rt, r.a)
}

// placeScan charges the scan at node i, whose record is r, for its site.
// Binding rejects primary scans of relations the catalog lacks, and shape
// panics on them.
func (e *Estimator) placeScan(f *plan.Flat, i int32, r *node, ch *charges, need need) {
	rel := &e.rels[f.Nodes[i].Rel-1]
	pages, site := r.pages, r.site

	if site != catalog.Client || pages == 0 {
		// Scan at a server copy (the primary, or whichever replica the plan
		// bound): sequential I/O at that copy's site.
		if need < needCharges {
			return
		}
		at := site
		if at == catalog.Client {
			at = rel.home // degenerate empty relation bound at the client
		}
		d := e.disk[slot(at)].seq * pages
		cpu := rel.scanCPU
		e.add(ch, diskAt(at), d)
		e.add(ch, cpuAt(at), cpu)
		if need == needAll {
			r.rt = d + cpu
		}
		return
	}

	// Client scan (§2.1): cached pages come from the client disk; missing
	// pages are faulted in from the home server one page at a time, with no
	// overlap between request, server I/O, and reply (§4.2.3).
	cached := rel.cached
	missing := pages - cached
	if need < needCharges {
		if missing > 0 {
			e.add(ch, toPages, missing)
		}
		return
	}

	clientDisk := e.disk[slot(site)].seq * cached
	clientCPU := rel.cachedCPU
	e.add(ch, diskAt(site), clientDisk)
	e.add(ch, cpuAt(site), clientCPU)

	var faultDur float64
	if missing > 0 {
		reqCPU, pageCPU := e.ctrlCPU, e.pageCPU
		serverIO := e.disk[slot(rel.home)].seq
		serverCPU := e.ioCPU
		e.add(ch, cpuAt(site), (reqCPU+pageCPU)*missing)
		e.add(ch, cpuAt(rel.home), (reqCPU+pageCPU+serverCPU)*missing)
		e.add(ch, diskAt(rel.home), serverIO*missing)
		e.add(ch, toWire, (e.ctrlWire+e.pageWire)*missing)
		e.add(ch, toPages, missing)
		perFault := reqCPU*2 + e.ctrlWire + serverCPU + serverIO +
			pageCPU*2 + e.pageWire
		faultDur = perFault * missing
	}
	if need == needAll {
		r.rt = clientDisk + clientCPU + faultDur
	}
}

// placeJoin charges the join r for its site and sets its rt terms.
func (e *Estimator) placeJoin(r *node, ch *charges, inner, outer *facts, need need) {
	p, site := &e.m.Params, r.site
	innerShip := e.ship(ch, inner.site, site, inner.pages, need)
	outerShip := e.ship(ch, outer.site, site, outer.pages, need)
	if need < needCharges {
		return
	}

	buildCPU, probeCPU := r.cpu, r.probeCPU
	e.add(ch, cpuAt(site), buildCPU+probeCPU)

	// Spill I/O: see shape.
	var writeInner, writeOuter, readBack float64
	if !p.MaxAlloc {
		spillInner, spillOuter := r.spillIn, r.spillOut
		ioCPU, d := e.ioCPU, &e.disk[slot(site)]
		writeInner = (d.spillWrite + ioCPU) * spillInner
		writeOuter = (d.spillWrite + ioCPU) * spillOuter
		readBack = (d.spillRead + ioCPU) * (spillInner + spillOuter)
		e.add(ch, diskAt(site), d.spillWrite*(spillInner+spillOuter)+
			d.spillRead*(spillInner+spillOuter))
		e.add(ch, cpuAt(site), ioCPU*2*(spillInner+spillOuter))
	}
	// Response time. The build blocks on the inner and the probe pipelines
	// with the outer. Partition writes at this join overlap the producer's
	// work when the producer runs at a different site (its partition-pass
	// reads stream while we write); co-located producer and consumer share
	// one disk, so their phases serialize. The final partition passes
	// (readBack) are this join's output emission and are in turn overlapped
	// by our consumer, which applies the same rule. rtOf adds the inputs'
	// rt.
	buildWork := buildCPU + writeInner
	probeWork := probeCPU + writeOuter
	r.colocL, r.colocR, r.c = inner.site == site, outer.site == site, readBack
	r.a, r.b = buildWork, probeWork
	if !r.colocL {
		r.a = max(innerShip, buildWork)
	}
	if !r.colocR {
		r.b = max(outerShip, probeWork)
	}
}
