package exec

import (
	"fmt"
	"math/bits"

	"hybridship/internal/catalog"
	"hybridship/internal/machine"
	"hybridship/internal/plan"
	"hybridship/internal/sim"
)

// iterator is the open-next-close interface of the Volcano-style engine
// (§3.2.1). next yields one page of tuples as a columnar batch; data flow
// is demand driven. Ownership of the returned batch transfers to the
// caller, which releases it to the engine pool (or hands it on).
type iterator interface {
	open(p *sim.Proc)
	next(p *sim.Proc) (*colBatch, bool)
	close(p *sim.Proc)
}

// runPlan executes bp with its nodes at sites b on process p and returns
// the number of result tuples displayed at the client.
func (e *engine) runPlan(p *sim.Proc, bp *BoundPlan, b plan.Binding, att *attemptState) int64 {
	acc := &chargeAcc{}
	d := &displayOp{e: e, acc: acc, child: e.build(bp, b, bp.flat.Nodes[0].Left, b[0], att, acc)}
	d.run(p)
	return d.tuples
}

// build converts node i's subtree into an iterator running at consumerSite's
// process, inserting a network operator pair wherever a producer is bound to
// a different site than its consumer (§3.2.1). A subtree on the far side of
// a network pair runs on the producer daemon's process, so it accumulates
// charges into the producer's own accumulator, created here. att supervises
// the attempt.
func (e *engine) build(bp *BoundPlan, b plan.Binding, i int32, consumerSite catalog.SiteID, att *attemptState, acc *chargeAcc) iterator {
	nd, site := &bp.flat.Nodes[i], b[i]
	sub := acc
	if site != consumerSite {
		sub = &chargeAcc{}
	}
	var it iterator
	switch nd.Kind {
	case plan.KindScan:
		it = e.newScan(bp, i, site, att, sub)
	case plan.KindSelect:
		child := e.build(bp, b, nd.Left, site, att, sub)
		it = e.newSelect(bp.flat.Src[i].Rel, bp.facts[i].mask, site, child, sub)
	case plan.KindAgg:
		child := e.build(bp, b, nd.Left, site, att, sub)
		it = e.newAgg(site, child, sub)
	case plan.KindJoin:
		inner := e.build(bp, b, nd.Left, site, att, sub)
		outer := e.build(bp, b, nd.Right, site, att, sub)
		l, r := &bp.facts[nd.Left], &bp.facts[nd.Right]
		it = e.newHashJoin(site, inner, outer, l.mask, r.mask, l.pages, r.pages, sub)
	default:
		panic(fmt.Sprintf("exec: cannot build operator for %v", nd.Kind))
	}
	if site != consumerSite {
		it = e.newNetPair(it, site, consumerSite, att, sub, acc)
	}
	return it
}

// scanIter produces all tuples of a base relation (§2.1), one page per
// batch: scanOp pays each page's I/O and CPU, and the iterator materializes
// the page's row ids as a one-column batch. Only the iterator holds the
// charge accumulator, and it flushes before every fill, so scanOp's I/O
// paths never run with coalesced charges pending.
type scanIter struct {
	*scanOp
	acc *chargeAcc
}

// scanOp pays for a base relation's pages in order. At a server copy it
// reads the relation's extent sequentially from the local disk. At the
// client it reads the cached prefix from the client disk and faults the
// remaining pages in from a replica (the home server, unless failover chose
// another copy as the fetch source), one page at a time.
type scanOp struct {
	e      *engine
	atSite *site
	atRole int      // RolePrimary when atSite is the relation's home
	ext    diskAddr // the extent read at atSite: a server copy or a client cache prefix
	srcExt diskAddr // the fetch source's copy, for page faults

	relPages    int
	relTuples   int64
	cachedPages int
	tpp         int // tuples per page
	nextPage    int
	nextID      int64
	src         *site // page-fault source for a client scan
	srcRole     int   // RolePrimary when src is the relation's home

	reply *sim.Buffer // reusable page-fault reply channel
	att   *attemptState

	// Coherence wiring: the client stream a client-bound scan reads through
	// and the relation's coherence index, its RelID−1.
	client int
	cohRI  int
}

// newScan builds the scan at node i of bp, bound to site at.
func (e *engine) newScan(bp *BoundPlan, i int32, at catalog.SiteID, att *attemptState, acc *chargeAcc) *scanIter {
	rel, id := bp.flat.Src[i].Table, bp.flat.Nodes[i].Rel
	r, ri := e.cfg.Catalog.ByID(id), int(id)-1
	s := &scanOp{
		e:         e,
		atSite:    e.site(at),
		relPages:  r.Pages(e.cfg.Params.PageSize),
		relTuples: int64(r.Tuples),
		tpp:       tuplesPerPage(e.cfg.Params.PageSize, r.TupleBytes),
		att:       att,
	}
	s.ext = s.atSite.extents[ri]
	if at == catalog.Client {
		s.cachedPages = e.cfg.Catalog.CachedPages(rel)
		if s.cachedPages > s.relPages {
			s.cachedPages = s.relPages
		}
		// Page faults go to the replica the attempt's re-binding chose as
		// the fetch source, the home server unless it failed over
		// (failover.go).
		fetchFrom := e.rb.srcs[i]
		s.src = e.site(fetchFrom)
		if fetchFrom != r.Home {
			s.srcRole = RoleSecondary
		}
		s.srcExt = s.src.extents[ri]
		s.client = att.client
		s.cohRI = ri
		if ext := e.cohExt[ri]; ext != nil {
			s.ext = ext[s.client]
		}
	} else if !r.HasCopy(at) {
		panic(fmt.Sprintf("exec: scan of %s bound to site %d, which holds no copy (home %d)", rel, at, r.Home))
	} else {
		s.src = e.site(r.Home)
		if at != r.Home {
			s.atRole = RoleSecondary
		}
	}
	return &scanIter{scanOp: s, acc: acc}
}

func (s *scanIter) open(p *sim.Proc) {
	s.nextPage = 0
	s.nextID = 0
}

// fill pays the I/O and CPU for page pg.
func (s *scanOp) fill(p *sim.Proc, pg int) {
	params := s.e.cfg.Params
	switch {
	case s.atSite.id != catalog.Client:
		// Server-copy scan: sequential read of the relation extent.
		if !s.atSite.up {
			s.att.failFromSite(p, reasonSiteDown, int(s.atSite.id), s.atRole)
		}
		s.atSite.chargeCPU(p, params, params.DiskInst)
		s.atSite.read(p, s.ext.plus(pg))
	case pg < s.cachedPages:
		// Cached prefix on the client disk.
		s.fillCoherent(p, pg)
	default:
		s.fault(p, pg)
	}
}

// fault pays one page-fault round trip for page pg with the fetch source
// (the home server, or the replica failover chose). The paper notes DS pays
// for the lack of overlap here (§4.2.3).
func (s *scanOp) fault(p *sim.Proc, pg int) {
	// Capture the contact initiation time (conservative lease stamp) and the
	// relation's commit sequence (fetch-race guard) at request send.
	c := s.e.coh
	sendT := s.e.sim.Now()
	seq := c.CommitSeq(s.cohRI)
	s.roundTrip(p, s.srcExt.plus(pg), false)
	// The round trip completed: it counts as a contact (syncs pending
	// invalidations, renews the lease as of sendT) and the fetched page may
	// be cached if no commit raced the fetch.
	c.SyncContact(s.client, int(s.src.id), sendT)
	c.RegisterFetch(s.client, s.cohRI, pg, seq)
}

// roundTrip pays one synchronous request/response with the fetch source: a
// control message out, then either the source's pager reading page a and
// replying with it, or, for a lease renewal (renew), a control-message
// reply and no read. The round trip is supervised: it fails at once if the
// source is down, a session's circuit breaker may shed it, and a watchdog
// bounds it, because a server that died (or a partitioned link) just never
// answers, and only the timeout can tell that apart from queueing delay.
func (s *scanOp) roundTrip(p *sim.Proc, a diskAddr, renew bool) {
	params := s.e.cfg.Params
	if s.reply == nil {
		s.reply = sim.NewBuffer(s.e.sim, "fault-reply", 1)
	}
	if !s.src.up {
		s.att.failFromSite(p, reasonSiteDown, int(s.src.id), s.srcRole)
	}
	// A session's circuit breaker sheds the fetch before any network round
	// trip when the source site's role is hard-open (another query's
	// failures tripped it mid-attempt): a breaker-open shed is not a failure
	// observation, so no site is attributed.
	if g := s.e.siteGate; g != nil && g.Shed(int(s.src.id), s.srcRole) {
		s.att.failFrom(p, reasonBreakerOpen)
	}
	s.att.beginFetch(int(s.src.id), s.srcRole)
	s.atSite.chargeCPU(p, params, params.MsgInstr(machine.CtrlMsgBytes))
	s.e.net.Transmit(p, machine.CtrlMsgBytes, false)
	s.src.pager.fetch(p, a, renew, s.reply)
	replyBytes := params.PageSize
	if renew {
		replyBytes = machine.CtrlMsgBytes
	}
	s.atSite.chargeCPU(p, params, params.MsgInstr(replyBytes))
	s.att.endFetch()
	// A completed round trip is positive evidence the source is healthy.
	if g := s.e.siteGate; g != nil {
		g.ReportSuccess(int(s.src.id), s.srcRole)
	}
}

func (s *scanIter) next(p *sim.Proc) (*colBatch, bool) {
	if s.nextPage >= s.relPages {
		return nil, false
	}
	// fill charges and parks; pending coalesced charges must land first.
	s.acc.flush(p)
	s.fill(p, s.nextPage)
	s.nextPage++

	n := s.tpp
	if rem := s.relTuples - s.nextID; int64(n) > rem {
		n = int(rem)
	}
	b := s.e.pool.get(1, s.tpp)
	b.n = n
	col, id := b.col(0), s.nextID
	for i := 0; i < n; i++ {
		col[i] = id
		id++
	}
	s.nextID += int64(n)
	return b, true
}

func (s *scanIter) close(p *sim.Proc) {}

// selectOp applies a base relation's selection predicate, charging
// CompareInst per input tuple, gathering survivors through a selection
// vector and re-compacting them into full pages: pages of exactly tpp while
// input lasts, then one final partial page.
type selectOp struct {
	e      *engine
	rel    string
	atSite *site
	child  iterator
	acc    *chargeAcc

	idx  int // the relation's column
	w    int // the child's page width
	tpp  int
	sel  []int32 // selection vector scratch
	cur  *colBatch
	rdy  batchRing
	done bool
}

// newSelect builds the selection on rel over child, whose subtree scans the
// relations of mask.
func (e *engine) newSelect(rel string, mask uint64, at catalog.SiteID, child iterator, acc *chargeAcc) *selectOp {
	return &selectOp{
		e: e, rel: rel, atSite: e.site(at), child: child, acc: acc,
		idx: slotCol(mask, e.cfg.Query.RelMask(rel)),
		w:   bits.OnesCount64(mask),
		tpp: tuplesPerPage(e.cfg.Params.PageSize, e.cfg.Query.ResultTupleBytes),
	}
}

func (s *selectOp) open(p *sim.Proc) {
	s.child.open(p)
	s.done = false
}

func (s *selectOp) next(p *sim.Proc) (*colBatch, bool) {
	pr := &s.e.cfg.Params
	pass := s.e.cfg.Pass
	// Consume input only while no completed output page is queued.
	for s.rdy.empty() && !s.done {
		in, ok := s.child.next(p)
		if !ok {
			s.done = true
			break
		}
		s.acc.add(p, s.atSite, pr, pr.CompareInst*float64(in.n))
		sel := s.sel[:0]
		idcol := in.col(s.idx)
		for i := 0; i < in.n; i++ {
			if pass == nil || pass(s.rel, idcol[i]) {
				sel = append(sel, int32(i))
			}
		}
		s.sel = sel
		// Gather the survivors column-wise into the output page under
		// construction, completing pages at exactly tpp rows.
		for len(sel) > 0 {
			if s.cur == nil {
				s.cur = s.e.pool.get(s.w, s.tpp)
			}
			take := s.tpp - s.cur.n
			if take > len(sel) {
				take = len(sel)
			}
			for c := 0; c < s.w; c++ {
				src, dst := in.col(c), s.cur.col(c)
				at := s.cur.n
				for k := 0; k < take; k++ {
					dst[at+k] = src[sel[k]]
				}
			}
			s.cur.n += take
			sel = sel[take:]
			if s.cur.n == s.tpp {
				s.rdy.push(s.cur)
				s.cur = nil
			}
		}
		s.e.pool.put(in)
	}
	if !s.rdy.empty() {
		return s.rdy.pop(), true
	}
	if s.done && s.cur != nil && s.cur.n > 0 {
		b := s.cur
		s.cur = nil
		return b, true
	}
	return nil, false
}

func (s *selectOp) close(p *sim.Proc) { s.child.close(p) }

// aggOp is a blocking grouped aggregation (paper footnote 4): it consumes
// its whole input, maintaining one running count per group (group = a hash
// of the tuple's row ids, folded in column order, modulo the query's
// GroupBy), then emits one tuple per non-empty group. Like a selection it
// may run at its producer's site — where it can shrink the data shipped to
// the client dramatically — or at the consumer's.
type aggOp struct {
	e      *engine
	atSite *site
	child  iterator
	acc    *chargeAcc
	groups int
	tpp    int

	counts  map[int64]int64
	emitted []int64
	pos     int
}

func (e *engine) newAgg(at catalog.SiteID, child iterator, acc *chargeAcc) *aggOp {
	groups := e.cfg.Query.GroupBy
	if groups < 1 {
		groups = 1
	}
	return &aggOp{
		e: e, atSite: e.site(at), child: child, acc: acc, groups: groups,
		tpp: tuplesPerPage(e.cfg.Params.PageSize, e.cfg.Query.ResultTupleBytes),
	}
}

func (a *aggOp) open(p *sim.Proc) {
	pr := &a.e.cfg.Params
	a.child.open(p)
	a.counts = make(map[int64]int64)
	for {
		in, ok := a.child.next(p)
		if !ok {
			break
		}
		a.acc.add(p, a.atSite, pr, pr.HashInst*float64(in.n))
		for i := 0; i < in.n; i++ {
			var h uint64
			for c := 0; c < in.w; c++ {
				h = mix64(h ^ uint64(in.col(c)[i]))
			}
			a.counts[int64(h%uint64(a.groups))]++
		}
		a.e.pool.put(in)
	}
	a.emitted = make([]int64, 0, len(a.counts))
	for g := range a.counts { //hslint:ordered -- group ids are sorted immediately below
		a.emitted = append(a.emitted, g)
	}
	sortInt64s(a.emitted)
	a.acc.add(p, a.atSite, pr,
		pr.MoveInst*float64(a.e.cfg.Query.ResultTupleBytes)/4*float64(len(a.emitted)))
	a.pos = 0
}

func (a *aggOp) next(p *sim.Proc) (*colBatch, bool) {
	if a.pos >= len(a.emitted) {
		return nil, false
	}
	n := a.tpp
	if rem := len(a.emitted) - a.pos; n > rem {
		n = rem
	}
	// An aggregate output tuple carries (group, count) in two columns; it
	// never participates in further joins.
	b := a.e.pool.get(2, a.tpp)
	b.n = n
	g, cnt := b.col(0), b.col(1)
	for i := 0; i < n; i++ {
		id := a.emitted[a.pos]
		a.pos++
		g[i] = id
		cnt[i] = a.counts[id]
	}
	return b, true
}

func (a *aggOp) close(p *sim.Proc) { a.child.close(p) }

// mix64 is the splitmix64 finalizer, used to spread correlated row ids
// uniformly over aggregation groups.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9 //hslint:allow seedflow -- tuple-group hash; no RNG is seeded from this value
	x ^= x >> 27
	x *= 0x94d049bb133111eb //hslint:allow seedflow -- tuple-group hash; no RNG is seeded from this value
	x ^= x >> 31
	return x
}

func sortInt64s(xs []int64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// displayOp is the root operator: it drains its child at the client and
// counts result tuples (§2.1). The final flush realizes the query's last
// coalesced charges before its completion time is read.
type displayOp struct {
	e      *engine
	child  iterator
	acc    *chargeAcc
	tuples int64
}

func (d *displayOp) run(p *sim.Proc) {
	pr := &d.e.cfg.Params
	d.child.open(p)
	for {
		b, ok := d.child.next(p)
		if !ok {
			break
		}
		d.tuples += int64(b.n)
		d.acc.add(p, d.e.client, pr, pr.DisplayInst*float64(b.n))
		d.e.pool.put(b)
	}
	d.child.close(p)
	d.acc.flush(p)
}

// netPair decouples a producer fragment from its consumer across the
// network. The producer runs as its own process that stays one page ahead of
// the consumer (§3.2.1), giving pipelined parallelism; the consumer side is
// an ordinary iterator. The producer runs the far subtree, so it owns that
// subtree's accumulator and flushes it before every transmit and before
// closing the stream.
type netPair struct {
	e        *engine
	from, to *site
	child    iterator
	buf      *sim.Buffer
	started  bool
	att      *attemptState

	pacc *chargeAcc // producer-side (far subtree) accumulator
	acc  *chargeAcc // consumer-side accumulator
}

func (e *engine) newNetPair(child iterator, from, to catalog.SiteID, att *attemptState, pacc, acc *chargeAcc) *netPair {
	return &netPair{e: e, from: e.site(from), to: e.site(to), child: child, att: att, pacc: pacc, acc: acc}
}

func (n *netPair) open(p *sim.Proc) {
	if n.started {
		return
	}
	n.started = true
	n.buf = sim.NewBuffer(n.e.sim, "net", n.e.cfg.Params.lookahead())
	pr := &n.e.cfg.Params
	body := func(pp *sim.Proc) {
		n.child.open(pp)
		for {
			b, ok := n.child.next(pp)
			if !ok {
				break
			}
			n.pacc.add(pp, n.from, pr, pr.MsgInstr(pr.PageSize))
			n.pacc.flush(pp)
			n.e.net.Transmit(pp, pr.PageSize, true)
			n.buf.Put(pp, b)
		}
		n.child.close(pp)
		n.pacc.flush(pp)
		n.buf.Close()
	}
	// Supervised producer: a cancellation unwinding this daemon (its own
	// failFrom, or the attempt's teardown) is absorbed here — and converted
	// into an abort of the attempt if one isn't in progress.
	supervised := func(pp *sim.Proc) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(sim.Interrupted); !ok {
					panic(r)
				}
				n.att.abort(reasonHelper)
			}
		}()
		body(pp)
	}
	// Spawning the producer is kernel-visible: the daemon's first dispatch
	// lands at the current simulated time. Any consumer-side work still
	// sitting in the accumulator — e.g. the hash charge for a partial last
	// build page, which no later batch flushes — must be realized first.
	n.acc.flush(p)
	n.att.addHelper(n.e.sim.SpawnDaemonLazy(func() string { return fmt.Sprintf("send:%d->%d", n.from.id, n.to.id) }, supervised))
}

func (n *netPair) next(p *sim.Proc) (*colBatch, bool) {
	// Get parks; the consumer's pending charges must land first.
	n.acc.flush(p)
	v, ok := n.buf.Get(p)
	if !ok {
		return nil, false
	}
	pr := &n.e.cfg.Params
	n.acc.add(p, n.to, pr, pr.MsgInstr(pr.PageSize))
	return v.(*colBatch), true
}

func (n *netPair) close(p *sim.Proc) {}

// pageServer answers page-fault requests at a server: it reads the requested
// page from the server disk and ships it to the client. One daemon per
// server serves requests in FIFO order. A request travels as a *pageReq
// from the server's free list, which a pointer in the buffer's any holds
// without allocating; the daemon copies it out and frees it on receipt.
type pageServer struct {
	e    *engine
	s    *site
	reqs *sim.Buffer
	free []*pageReq
}

type pageReq struct {
	addr  diskAddr
	renew bool // lease renewal: a control-message reply, no page read
	reply *sim.Buffer
}

func newPageServer(e *engine, s *site) *pageServer {
	ps := &pageServer{e: e, s: s, reqs: sim.NewBuffer(e.sim, "pager", 1024)}
	e.sim.SpawnDaemonLazy(func() string { return fmt.Sprintf("pager:site%d", s.id) }, func(p *sim.Proc) {
		params := e.cfg.Params
		for {
			v, ok := ps.reqs.Get(p)
			if !ok {
				return
			}
			rp := v.(*pageReq)
			r := *rp
			ps.free = append(ps.free, rp)
			if !ps.s.up {
				// The server crashed with this request queued: it is simply
				// lost. The requester's attempt has been aborted by the
				// crash hook (or will be by its fetch watchdog).
				continue
			}
			ps.s.chargeCPU(p, params, params.MsgInstr(machine.CtrlMsgBytes)) // receive request
			if r.renew {
				ps.s.chargeCPU(p, params, params.MsgInstr(machine.CtrlMsgBytes)) // send reply
				e.net.Transmit(p, machine.CtrlMsgBytes, false)
			} else {
				ps.s.chargeCPU(p, params, params.DiskInst)
				ps.s.read(p, r.addr)
				ps.s.chargeCPU(p, params, params.MsgInstr(params.PageSize)) // send page
				e.net.Transmit(p, params.PageSize, true)
			}
			r.reply.Put(p, struct{}{})
		}
	})
	return ps
}

// fetch performs one synchronous page fault (or, with renew, one lease
// renewal) on behalf of the caller, signalling completion through the
// caller-owned reply buffer.
func (ps *pageServer) fetch(p *sim.Proc, addr diskAddr, renew bool, reply *sim.Buffer) {
	var r *pageReq
	if n := len(ps.free); n > 0 {
		r, ps.free = ps.free[n-1], ps.free[:n-1]
	} else {
		r = new(pageReq)
	}
	*r = pageReq{addr: addr, renew: renew, reply: reply}
	ps.reqs.Put(p, r)
	reply.Get(p)
}
