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
	"hybridship/internal/plan"
	"hybridship/internal/query"
)

// Params configures the cost model. Table 2 of the paper defines the CPU and
// message constants; the per-page disk times are the calibration aggregates
// of §4.1 (obtained from separate simulation runs, exactly as the paper did).
type Params struct {
	Mips        float64 // CPU speed, 10^6 instructions per second
	PageSize    int     // bytes per page
	NetBw       float64 // network bandwidth, bits per second
	MsgInst     float64 // instructions to send or receive a message
	PerSizeMI   float64 // instructions to send or receive PageSize bytes
	DisplayInst float64 // instructions to display a tuple
	CompareInst float64 // instructions to apply a predicate
	HashInst    float64 // instructions to hash a tuple
	MoveInst    float64 // instructions to copy 4 bytes
	DiskInst    float64 // instructions per disk I/O request
	NumDisks    int     // disk arms per site (default 1)

	SeqPageTime  float64 // seconds per sequential page I/O (calibrated)
	RandPageTime float64 // seconds per random page I/O (calibrated)
	// Spill I/O prices reflect the disk's write-back cache and batched
	// destaging: partition writes and partition-sequential re-reads run
	// much closer to sequential than to random speed. Calibrated against
	// the simulator like the two rates above.
	SpillWriteTime float64
	SpillReadTime  float64

	FudgeF   float64 // Shapiro's hash-table fudge factor (1.2)
	MaxAlloc bool    // joins get maximum (true) or minimum (false) allocation

	// ServerDiskUtil is the utilization of each server's disk due to
	// external load (multi-client contention, §4.2.2). Disk service times at
	// a loaded server are inflated by 1/(1-u).
	ServerDiskUtil map[catalog.SiteID]float64
}

// DefaultParams returns the Table 2 defaults with the §4.1 disk calibration.
func DefaultParams() Params {
	return Params{
		Mips:           50,
		PageSize:       4096,
		NetBw:          100e6,
		MsgInst:        20000,
		PerSizeMI:      12000,
		DisplayInst:    0,
		CompareInst:    2,
		HashInst:       9,
		MoveInst:       1,
		DiskInst:       5000,
		NumDisks:       1,
		SeqPageTime:    0.0035,
		RandPageTime:   0.0118,
		SpillWriteTime: 0.0045,
		SpillReadTime:  0.0035,
		FudgeF:         1.2,
		MaxAlloc:       false,
	}
}

func (p Params) cpuTime(instructions float64) float64 {
	return instructions / (p.Mips * 1e6)
}

// msgCPUTime is the endpoint CPU time to send or receive one message.
func (p Params) msgCPUTime(bytes int) float64 {
	return p.cpuTime(p.MsgInst + p.PerSizeMI*float64(bytes)/float64(p.PageSize))
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

// ctrlMsgBytes is the size of a small control message (e.g. a page-fault
// request).
const ctrlMsgBytes = 128

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

// nodeInfo carries per-node derived quantities up the tree.
type nodeInfo struct {
	card       float64 // output cardinality, tuples
	tupleBytes int
	pages      float64 // output size in pages
	rt         float64 // completion time of this node's output
	site       catalog.SiteID
	tables     uint64 // base-relation bitmask (Query.RelMask)
}

// accum aggregates resource consumption for the total-cost metric and the
// bottleneck bound of the response-time metric. Per-site work is indexed by
// slot, site+1, so the client (site -1) is slot 0 and server s is slot s+1.
type accum struct {
	cpu   []float64
	disk  []float64
	wire  float64
	pages float64
}

// reset zeroes the accumulator and sizes it to slots sites.
func (a *accum) reset(slots int) {
	if cap(a.cpu) < slots {
		a.cpu, a.disk = make([]float64, slots), make([]float64, slots)
	}
	a.cpu, a.disk = a.cpu[:slots], a.disk[:slots]
	clear(a.cpu)
	clear(a.disk)
	a.wire, a.pages = 0, 0
}

// total sums all resource consumption in slot order, i.e. in ascending site
// order, so floating-point rounding is identical across runs. A site with
// no work adds +0.0, which leaves the sum exactly unchanged.
func (a *accum) total() float64 {
	t := a.wire
	for _, v := range a.cpu {
		t += v
	}
	for _, v := range a.disk {
		t += v
	}
	return t
}

// bottleneck is the busiest single resource. It uses the builtin max, which
// agrees with math.Max for the non-NaN values the model produces.
func (a *accum) bottleneck(disksPerSite int) float64 {
	if disksPerSite < 1 {
		disksPerSite = 1
	}
	m := a.wire
	for _, v := range a.cpu {
		m = max(m, v)
	}
	for _, v := range a.disk {
		// A site's disk work spreads over its arms in the best case.
		m = max(m, v/float64(disksPerSite))
	}
	return m
}

// slot is the accumulator index of a site.
func slot(s catalog.SiteID) int { return int(s) + 1 }

// Estimate predicts the execution of a plan whose annotations have been
// bound to sites. It flattens the binding into the pre-order site list an
// Estimator consumes, so both forms run the same evaluation.
func (m *Model) Estimate(root *plan.Node, binding plan.Binding) Estimate {
	var sites []catalog.SiteID
	root.Walk(func(n *plan.Node) { sites = append(sites, binding[n]) })
	return NewEstimator(m).Estimate(root, sites)
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
}

// siteDisk holds one site's per-page disk times, each inflated by the
// site's clamped external utilization u to raw / (1 - u).
type siteDisk struct {
	seq, spillWrite, spillRead float64
}

// Estimator evaluates plans of one Model repeatedly. It resolves the
// model's relation facts, each site's load-inflated disk times and the
// per-message CPU and wire times once, and reuses its accumulator and
// per-node scratch, so a search loop evaluating candidate after candidate
// allocates nothing and, for nodes carrying a valid RelID, consults no map.
// The model must not change while the Estimator is in use.
type Estimator struct {
	m    *Model
	rels []relFacts
	disk []siteDisk // per slot
	acc  accum

	// Per-message constants: Params.msgCPUTime and wireTime of a data page
	// and of a control message, and the CPU time of one disk request.
	pageCPU, pageWire float64
	ctrlCPU, ctrlWire float64
	ioCPU             float64

	sites []catalog.SiteID // the plan being estimated, in pre-order
	info  []nodeInfo       // each node's facts, by pre-order position
	pos   int              // next pre-order position eval visits
}

// NewEstimator resolves m's relation facts, disk times and message
// constants. The estimator serves m alone.
func NewEstimator(m *Model) *Estimator {
	p := &m.Params
	names := m.Catalog.Relations()
	e := &Estimator{
		m: m, rels: make([]relFacts, 0, len(names)),
		pageCPU: p.msgCPUTime(p.PageSize), pageWire: p.wireTime(p.PageSize),
		ctrlCPU: p.msgCPUTime(ctrlMsgBytes), ctrlWire: p.wireTime(ctrlMsgBytes),
		ioCPU: p.cpuTime(p.DiskInst),
	}
	hi := catalog.SiteID(m.Catalog.NumServers - 1)
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

// Estimate predicts the execution of root with sites[i] the site of the
// i-th node in pre-order (the order of plan.Node.Walk), as plan.Binder
// produces them.
func (e *Estimator) Estimate(root *plan.Node, sites []catalog.SiteID) Estimate {
	for _, s := range sites {
		if s < catalog.Client {
			panic(fmt.Sprintf("cost: site %d is below the client", s))
		}
		if slot(s) >= len(e.disk) {
			e.grow(s)
		}
	}
	e.sites, e.pos = sites, 0
	e.info = slices.Grow(e.info[:0], len(sites))[:len(sites)]
	e.acc.reset(len(e.disk))
	info := e.eval(root)
	if e.pos != len(sites) {
		panic(fmt.Sprintf("cost: %d sites for a plan of %d nodes", len(sites), e.pos))
	}
	e.sites = nil
	rt := max(info.rt, e.acc.bottleneck(e.m.Params.NumDisks))
	return Estimate{TotalCost: e.acc.total(), ResponseTime: rt, PagesSent: e.acc.pages}
}

// facts returns the facts of the named relation, or nil if the catalog
// lacks it. A valid ID hint (a node's RelID) spares the lookup by name.
func (e *Estimator) facts(hint catalog.RelID, name string) *relFacts {
	if i := int(e.m.Catalog.Resolve(hint, name)) - 1; uint(i) < uint(len(e.rels)) {
		return &e.rels[i]
	}
	return nil
}

// selectivity is Query.SelectSelectivity of the select n through the
// resolved facts.
func (e *Estimator) selectivity(n *plan.Node) float64 {
	if f := e.facts(n.RelID, n.Rel); f != nil {
		return f.sel
	}
	return e.m.Query.SelectSelectivity(n.Rel)
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

// ship charges communication for moving `pages` data pages of `bytes` total
// from one site to another and returns the pipeline stage duration.
func (e *Estimator) ship(from, to catalog.SiteID, pages float64, acct bool) float64 {
	if from == to || pages <= 0 {
		return 0
	}
	acc := &e.acc
	acc.cpu[slot(from)] += e.pageCPU * pages
	acc.cpu[slot(to)] += e.pageCPU * pages
	acc.wire += e.pageWire * pages
	if acct {
		acc.pages += pages
	}
	// The shipping stage streams pages; its duration is bounded by the
	// slower of the wire and the two endpoint CPUs for this stream.
	return pages * max(e.pageWire, e.pageCPU)
}

// eval evaluates the subtree at n, whose site is the next pre-order entry,
// into that position's scratch entry and returns it. Children's entries
// stay valid while their parent reads them: e.info is sized before the
// walk and never moves during it.
func (e *Estimator) eval(n *plan.Node) *nodeInfo {
	m, p, acc := e.m, &e.m.Params, &e.acc
	i := e.pos
	e.pos++
	out, site := &e.info[i], e.sites[i]
	switch n.Kind {
	case plan.KindScan:
		e.evalScan(n, site, out)

	case plan.KindSelect:
		child := e.eval(n.Left)
		shipDur := e.ship(child.site, site, child.pages, true)
		sel := e.selectivity(n)
		cpu := p.cpuTime(p.CompareInst * child.card)
		acc.cpu[slot(site)] += cpu
		card := child.card * sel
		*out = nodeInfo{
			card:       card,
			tupleBytes: child.tupleBytes,
			pages:      pagesOf(card, child.tupleBytes, p.PageSize),
			rt:         max(child.rt, max(shipDur, cpu)),
			site:       site,
			tables:     child.tables,
		}

	case plan.KindJoin:
		e.evalJoin(n, site, out)

	case plan.KindAgg:
		child := e.eval(n.Left)
		shipDur := e.ship(child.site, site, child.pages, true)
		cpu := p.cpuTime(p.HashInst * child.card)
		acc.cpu[slot(site)] += cpu
		card := float64(m.Query.GroupBy)
		if card <= 0 || card > child.card {
			card = min(1, child.card)
			if m.Query.GroupBy > 0 {
				card = min(float64(m.Query.GroupBy), child.card)
			}
		}
		// Aggregation is blocking: its (small) output appears only after the
		// whole input has been consumed.
		*out = nodeInfo{
			card:       card,
			tupleBytes: child.tupleBytes,
			pages:      pagesOf(card, child.tupleBytes, p.PageSize),
			rt:         max(child.rt, shipDur) + cpu,
			site:       site,
			tables:     child.tables,
		}

	case plan.KindDisplay:
		child := e.eval(n.Left)
		shipDur := e.ship(child.site, site, child.pages, true)
		cpu := p.cpuTime(p.DisplayInst * child.card)
		acc.cpu[slot(site)] += cpu
		*out = nodeInfo{
			card:       child.card,
			tupleBytes: child.tupleBytes,
			pages:      child.pages,
			rt:         max(child.rt, max(shipDur, cpu)),
			site:       site,
			tables:     child.tables,
		}

	default:
		panic("cost: unknown node kind")
	}
	return out
}

// evalScan evaluates the scan n into info. Binding rejects scans of
// relations the catalog lacks, so a miss is a caller's bug.
func (e *Estimator) evalScan(n *plan.Node, site catalog.SiteID, info *nodeInfo) {
	p, acc := &e.m.Params, &e.acc
	rel := e.facts(n.RelID, n.Table)
	if rel == nil {
		panic("cost: scan of unknown relation " + n.Table)
	}
	pages := rel.pages
	*info = nodeInfo{card: rel.card, tupleBytes: rel.tupleBytes, pages: pages, site: site,
		tables: rel.mask}

	if site != catalog.Client || pages == 0 {
		// Scan at a server copy (the primary, or whichever replica the plan
		// bound): sequential I/O at that copy's site.
		at := site
		if at == catalog.Client {
			at = rel.home // degenerate empty relation bound at the client
		}
		d := e.disk[slot(at)].seq * pages
		cpu := p.cpuTime(p.DiskInst * pages)
		acc.disk[slot(at)] += d
		acc.cpu[slot(at)] += cpu
		info.rt = d + cpu
		return
	}

	// Client scan (§2.1): cached pages come from the client disk; missing
	// pages are faulted in from the home server one page at a time, with no
	// overlap between request, server I/O, and reply (§4.2.3).
	cached := rel.cached
	missing := pages - cached

	clientDisk := e.disk[slot(site)].seq * cached
	clientCPU := p.cpuTime(p.DiskInst * cached)
	acc.disk[slot(site)] += clientDisk
	acc.cpu[slot(site)] += clientCPU

	var faultDur float64
	if missing > 0 {
		reqCPU, pageCPU := e.ctrlCPU, e.pageCPU
		serverIO := e.disk[slot(rel.home)].seq
		serverCPU := e.ioCPU
		acc.cpu[slot(site)] += (reqCPU + pageCPU) * missing
		acc.cpu[slot(rel.home)] += (reqCPU + pageCPU + serverCPU) * missing
		acc.disk[slot(rel.home)] += serverIO * missing
		acc.wire += (e.ctrlWire + e.pageWire) * missing
		acc.pages += missing
		perFault := reqCPU*2 + e.ctrlWire + serverCPU + serverIO +
			pageCPU*2 + e.pageWire
		faultDur = perFault * missing
	}
	info.rt = clientDisk + clientCPU + faultDur
}

// evalJoin evaluates the join n into out.
func (e *Estimator) evalJoin(n *plan.Node, site catalog.SiteID, out *nodeInfo) {
	m, p, acc := e.m, &e.m.Params, &e.acc
	inner := e.eval(n.Left)
	outer := e.eval(n.Right)

	innerShip := e.ship(inner.site, site, inner.pages, true)
	outerShip := e.ship(outer.site, site, outer.pages, true)

	outCard := inner.card * outer.card * m.Query.JoinSelectivity(inner.tables, outer.tables)
	outBytes := m.Query.ResultTupleBytes
	outPages := pagesOf(outCard, outBytes, p.PageSize)

	// CPU: hash each input tuple once, move each result tuple.
	buildCPU := p.cpuTime(p.HashInst * inner.card)
	probeCPU := p.cpuTime(p.HashInst*outer.card + p.MoveInst*(float64(outBytes)/4)*outCard)
	acc.cpu[slot(site)] += buildCPU + probeCPU

	// Temporary I/O per Shapiro: with the maximum allocation the inner's
	// hash table is memory resident; with the minimum allocation all but a
	// memory-sized slice of both inputs is written to and re-read from the
	// join site's disk.
	var writeInner, writeOuter, readBack float64
	if !p.MaxAlloc {
		fn := p.FudgeF * inner.pages
		mem := math.Ceil(math.Sqrt(fn))
		q := 0.0
		if fn > 0 {
			q = mem / fn
		}
		if q > 1 {
			q = 1
		}
		spillInner := (1 - q) * inner.pages
		spillOuter := (1 - q) * outer.pages
		ioCPU, d := e.ioCPU, &e.disk[slot(site)]
		writeInner = (d.spillWrite + ioCPU) * spillInner
		writeOuter = (d.spillWrite + ioCPU) * spillOuter
		readBack = (d.spillRead + ioCPU) * (spillInner + spillOuter)
		acc.disk[slot(site)] += d.spillWrite*(spillInner+spillOuter) +
			d.spillRead*(spillInner+spillOuter)
		acc.cpu[slot(site)] += ioCPU * 2 * (spillInner + spillOuter)
	}
	// Response time. The build blocks on the inner and the probe pipelines
	// with the outer. Partition writes at this join overlap the producer's
	// work when the producer runs at a different site (its partition-pass
	// reads stream while we write); co-located producer and consumer share
	// one disk, so their phases serialize. The final partition passes
	// (readBack) are this join's output emission and are in turn overlapped
	// by our consumer, which applies the same rule.
	buildWork := buildCPU + writeInner
	probeWork := probeCPU + writeOuter
	var buildDur, probeDur float64
	if inner.site == site {
		buildDur = inner.rt + buildWork
	} else {
		buildDur = max(inner.rt, max(innerShip, buildWork))
	}
	if outer.site == site {
		probeDur = outer.rt + probeWork
	} else {
		probeDur = max(outer.rt, max(outerShip, probeWork))
	}
	rt := buildDur + probeDur + readBack

	*out = nodeInfo{card: outCard, tupleBytes: outBytes, pages: outPages, rt: rt, site: site,
		tables: inner.tables | outer.tables}
}
