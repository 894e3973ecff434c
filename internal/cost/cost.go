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

// node is the estimator's record of one plan node, by node ID: the facts it
// hands its parent, the charges it adds, the terms its rt combines with its
// children's, and the inputs all of them were computed from.
type node struct {
	facts
	shapeTerms
	rtTerms
	known       bool  // facts and ch are valid for left, right and site
	left, right int32 // the children the facts were computed from
	n           int   // charges in ch
	ch          [maxCharges]charge
}

// shapeTerms are the parts of a node's charges that depend only on its
// shape facts and its inputs', so that a site change alone recomputes
// neither: a unary node's CPU time, and a join's build and probe CPU times
// and the pages of each input it spills.
type shapeTerms struct {
	cpu, probeCPU     float64
	spillIn, spillOut float64
}

// rtTerms are the parts of a node's rt that do not depend on its
// children's rt, so that a change in a child's rt alone recomputes rt from
// them with the same operations in the same order (see rtOf).
type rtTerms struct {
	a, b, c        float64
	colocL, colocR bool // a join's input is produced at the join's site
}

// add appends the charge (to, v) to r's list. A zero charge is left out:
// added to an accumulator, which starts at +0.0 and only grows, it would
// change no bit.
func (e *Estimator) add(r *node, to int32, v float64) {
	if v == 0 {
		return
	}
	r.ch[r.n] = charge{to, v}
	r.n++
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
// It evaluates a flat plan as a delta from the last plan it evaluated, when
// that was the same Flat (same generation) evaluated for the same need: a
// node's facts and charges are recomputed only if its site or its children
// changed, or a child's facts did, and a recomputed node whose facts come
// out bit-equal stops the change from travelling further up. Every charge
// is then re-added in post-order, so each sum is formed in the order a
// recursive evaluation adds them, and the result is bit-identical to
// evaluating the plan from scratch. The model must not change while the
// Estimator is in use.
type Estimator struct {
	m    *Model
	rels []relFacts
	disk []siteDisk // per slot

	// Per-message constants: the endpoint CPU time and wireTime of a data page
	// and of a control message, and the CPU time of one disk request.
	pageCPU, pageWire float64
	ctrlCPU, ctrlWire float64
	ioCPU             float64

	flat    plan.Flat // Estimate's flattening of a tree
	nodes   []node    // by node ID of the plan last evaluated
	changed []change  // by node ID: how the current pass changed its facts
	acc     []float64 // see toWire
	of      *plan.Flat
	gen     uint64
	need    need
}

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

// reset flattens root into e.flat.
func (e *Estimator) reset(root *plan.Node) {
	if err := e.flat.Reset(root, e.m.Catalog); err != nil {
		panic("cost: " + err.Error())
	}
}

// Estimate predicts the execution of root with sites[i] the site of the
// i-th node in pre-order (the order of plan.Node.Walk), as plan.Binder
// produces them.
func (e *Estimator) Estimate(root *plan.Node, sites []catalog.SiteID) Estimate {
	e.reset(root)
	return e.EstimateFlat(&e.flat, sites)
}

// EstimateFlat predicts the execution of the flat plan f, whose relation
// IDs come from the model's catalog and whose Post is current, with
// sites[i] the site of node i, as plan.Binder.BindFlat produces them.
func (e *Estimator) EstimateFlat(f *plan.Flat, sites []catalog.SiteID) Estimate {
	e.run(f, sites, needAll)
	return Estimate{TotalCost: e.total(), ResponseTime: e.responseTime(), PagesSent: e.acc[toPages]}
}

// Value is EstimateFlat(f, sites).Value(m), computing only what the metric
// reads: pages sent need no CPU, disk or response-time arithmetic, and
// total cost needs no response time.
func (e *Estimator) Value(f *plan.Flat, sites []catalog.SiteID, m Metric) float64 {
	need := needFor(m)
	e.run(f, sites, need)
	switch need {
	case needPages:
		return e.acc[toPages]
	case needAll:
		return e.responseTime()
	}
	return e.total()
}

// run brings the node records up to date for f and sites and re-adds every
// charge into the accumulators.
func (e *Estimator) run(f *plan.Flat, sites []catalog.SiteID, need need) {
	n := len(f.Nodes)
	if len(sites) != n {
		panic(fmt.Sprintf("cost: %d sites for a plan of %d nodes", len(sites), n))
	}
	for _, s := range sites {
		if s < catalog.Client {
			panic(fmt.Sprintf("cost: site %d is below the client", s))
		}
		if slot(s) >= len(e.disk) {
			e.grow(s)
		}
	}
	if e.of != f || e.gen != f.Generation() || e.need != need || len(e.nodes) != n {
		e.of, e.gen, e.need = f, f.Generation(), need
		e.nodes = slices.Grow(e.nodes[:0], n)[:n]
		e.changed = slices.Grow(e.changed[:0], n)[:n]
		for i := range e.nodes {
			e.nodes[i].known = false
		}
	}
	nodes, changed := e.nodes, e.changed
	for _, i := range f.Post {
		row, r := &f.Nodes[i], &nodes[i]
		cl, cr := unchanged, unchanged
		if row.Left >= 0 {
			cl = changed[row.Left]
		}
		if row.Right >= 0 {
			cr = changed[row.Right]
		}
		relinked := r.left != row.Left || r.right != row.Right
		switch {
		case !r.known || relinked || r.site != sites[i] || max(cl, cr) >= siteChanged:
			old, known := r.facts, r.known
			e.eval(f, i, sites[i], need, !known || relinked || max(cl, cr) == shapeChanged)
			changed[i] = shapeChanged
			if known {
				changed[i] = r.facts.diff(&old)
			}
		case cl == rtChanged || cr == rtChanged:
			old := r.rt
			r.rt = e.rtOf(row, r)
			changed[i] = unchanged
			if math.Float64bits(r.rt) != math.Float64bits(old) {
				changed[i] = rtChanged
			}
		default:
			changed[i] = unchanged
		}
	}
	acc := slices.Grow(e.acc[:0], 2+2*len(e.disk))[:2+2*len(e.disk)]
	clear(acc)
	for _, i := range f.Post {
		r := &nodes[i]
		for _, c := range r.ch[:r.n] {
			acc[c.to] += c.v
		}
	}
	e.acc = acc
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

// responseTime is the root's completion time, bounded below by the busiest
// single resource. The bound uses the builtin max, which agrees with
// math.Max for the non-NaN values the model produces.
func (e *Estimator) responseTime() float64 {
	// max is exact, commutative and associative, so running the CPU and
	// the disk maxima apart gives the same bits as one running maximum.
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
	return max(e.nodes[0].rt, mc, md)
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

// ship charges r for moving pages data pages from one site to another and
// returns the pipeline stage duration.
func (e *Estimator) ship(r *node, from, to catalog.SiteID, pages float64, need need) float64 {
	if from == to || pages <= 0 {
		return 0
	}
	if need >= needCharges {
		e.add(r, cpuAt(from), e.pageCPU*pages)
		e.add(r, cpuAt(to), e.pageCPU*pages)
		e.add(r, toWire, e.pageWire*pages)
	}
	e.add(r, toPages, pages)
	// The shipping stage streams pages; its duration is bounded by the
	// slower of the wire and the two endpoint CPUs for this stream.
	return pages * max(e.pageWire, e.pageCPU)
}

// eval recomputes node i, bound to site, from its children's records. Its
// shape facts (cardinality, pages, tuple width, relations) depend only on
// its children's, so unless shape is set they stand as last computed; its
// charges and rt terms are always recomputed.
func (e *Estimator) eval(f *plan.Flat, i int32, site catalog.SiteID, need need, shape bool) {
	row, r := &f.Nodes[i], &e.nodes[i]
	r.known, r.left, r.right, r.n, r.site = true, row.Left, row.Right, 0, site
	var l, o *facts
	if row.Left >= 0 {
		l = &e.nodes[row.Left].facts
	}
	if row.Right >= 0 {
		o = &e.nodes[row.Right].facts
	}
	if shape {
		e.shape(f, i, l, o)
	}
	switch row.Kind {
	case plan.KindScan:
		e.placeScan(f, i, need)
		return
	case plan.KindJoin:
		e.placeJoin(r, l, o, need)
	default:
		shipDur := e.ship(r, l.site, site, l.pages, need)
		if need < needCharges {
			break
		}
		cpu := r.cpu
		e.add(r, cpuAt(site), cpu)
		if row.Kind == plan.KindAgg {
			r.a, r.b = shipDur, cpu
		} else {
			r.a = max(shipDur, cpu)
		}
	}
	if need == needAll {
		r.rt = e.rtOf(row, r)
	}
}

// shape recomputes the shape facts of node i from its left and right
// inputs' (nil where it has none).
func (e *Estimator) shape(f *plan.Flat, i int32, l, o *facts) {
	m, p, r := e.m, &e.m.Params, &e.nodes[i]
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
		card := l.card * o.card * m.Query.JoinSelectivity(l.tables, o.tables)
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
// its children's rt.
func (e *Estimator) rtOf(row *plan.FlatNode, r *node) float64 {
	l := e.nodes[row.Left].rt
	switch row.Kind {
	case plan.KindJoin:
		// The build blocks on the inner and the probe pipelines with the
		// outer; see evalJoin.
		buildDur, probeDur := max(l, r.a), 0.0
		if r.colocL {
			buildDur = l + r.a
		}
		o := e.nodes[row.Right].rt
		if r.colocR {
			probeDur = o + r.b
		} else {
			probeDur = max(o, r.b)
		}
		return buildDur + probeDur + r.c
	case plan.KindAgg:
		// Aggregation is blocking: its (small) output appears only after
		// the whole input has been consumed.
		return max(l, r.a) + r.b
	}
	return max(l, r.a)
}

// placeScan charges the scan at node i for its site. Binding rejects
// primary scans of relations the catalog lacks, and shape panics on them.
func (e *Estimator) placeScan(f *plan.Flat, i int32, need need) {
	r := &e.nodes[i]
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
		e.add(r, diskAt(at), d)
		e.add(r, cpuAt(at), cpu)
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
			e.add(r, toPages, missing)
		}
		return
	}

	clientDisk := e.disk[slot(site)].seq * cached
	clientCPU := rel.cachedCPU
	e.add(r, diskAt(site), clientDisk)
	e.add(r, cpuAt(site), clientCPU)

	var faultDur float64
	if missing > 0 {
		reqCPU, pageCPU := e.ctrlCPU, e.pageCPU
		serverIO := e.disk[slot(rel.home)].seq
		serverCPU := e.ioCPU
		e.add(r, cpuAt(site), (reqCPU+pageCPU)*missing)
		e.add(r, cpuAt(rel.home), (reqCPU+pageCPU+serverCPU)*missing)
		e.add(r, diskAt(rel.home), serverIO*missing)
		e.add(r, toWire, (e.ctrlWire+e.pageWire)*missing)
		e.add(r, toPages, missing)
		perFault := reqCPU*2 + e.ctrlWire + serverCPU + serverIO +
			pageCPU*2 + e.pageWire
		faultDur = perFault * missing
	}
	if need == needAll {
		r.rt = clientDisk + clientCPU + faultDur
	}
}

// placeJoin charges the join r for its site and sets its rt terms.
func (e *Estimator) placeJoin(r *node, inner, outer *facts, need need) {
	p, site := &e.m.Params, r.site
	innerShip := e.ship(r, inner.site, site, inner.pages, need)
	outerShip := e.ship(r, outer.site, site, outer.pages, need)
	if need < needCharges {
		return
	}

	buildCPU, probeCPU := r.cpu, r.probeCPU
	e.add(r, cpuAt(site), buildCPU+probeCPU)

	// Spill I/O: see shape.
	var writeInner, writeOuter, readBack float64
	if !p.MaxAlloc {
		spillInner, spillOuter := r.spillIn, r.spillOut
		ioCPU, d := e.ioCPU, &e.disk[slot(site)]
		writeInner = (d.spillWrite + ioCPU) * spillInner
		writeOuter = (d.spillWrite + ioCPU) * spillOuter
		readBack = (d.spillRead + ioCPU) * (spillInner + spillOuter)
		e.add(r, diskAt(site), d.spillWrite*(spillInner+spillOuter)+
			d.spillRead*(spillInner+spillOuter))
		e.add(r, cpuAt(site), ioCPU*2*(spillInner+spillOuter))
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
