// Package disk implements the detailed disk model of the paper's simulator
// (§3.2.2), adapted from the ZetaSim model with settings in the spirit of the
// Fujitsu M2266 drive used by Patel, Carey and Vernon (SIGMETRICS 1994).
//
// The model includes an elevator (SCAN) scheduling policy, a controller cache
// with read-ahead prefetching, explicit seek/settle costs, and a rotational
// position that advances with virtual time, so sequential transfers stream at
// media rate while random requests pay seek plus rotational latency. The
// parameters are calibrated so that page-at-a-time demand reads average
// ~3.5 ms sequential and ~11.8 ms random, the aggregates the paper reports
// for its own calibration runs (§4.1).
package disk

import (
	"fmt"
	"math"
	"slices"

	"hybridship/internal/sim"
)

// PageAddr is a linear page number on a disk. Geometry mapping (cylinder,
// track, sector) is derived from the address.
type PageAddr int64

// Params configures the disk model. The zero value is not usable; start from
// DefaultParams.
type Params struct {
	Cylinders       int     // number of cylinders
	TracksPerCyl    int     // surfaces (heads)
	PagesPerTrack   int     // 4 KB pages per track
	RotationTime    float64 // seconds per revolution
	SettleTime      float64 // head settle / single-track or head-switch time (s)
	SeekFactor      float64 // seek(dist) = SettleTime + SeekFactor*sqrt(dist) (s)
	CtrlOverhead    float64 // fixed controller time per request (s)
	CtrlHitTime     float64 // controller-cache hit service time per page (s)
	CtrlCachePages  int     // capacity of the controller cache, in pages
	ReadAheadPages  int     // max pages prefetched past a read (same track)
	WriteCachePages int     // write-back cache capacity; 0 = write-through
	FIFOScheduling  bool    // serve requests in arrival order instead of SCAN
}

// DefaultParams returns the calibrated settings used throughout the study.
func DefaultParams() Params {
	return Params{
		Cylinders:       1250,
		TracksPerCyl:    10,
		PagesPerTrack:   4,
		RotationTime:    0.0111, // 5400 rpm; a 4 KB page at media rate = 2.78 ms
		SettleTime:      0.001,
		SeekFactor:      0.00011,
		CtrlOverhead:    0.0004,
		CtrlHitTime:     0.0004,
		CtrlCachePages:  48,
		ReadAheadPages:  3,
		WriteCachePages: 128,
	}
}

// Capacity returns the total number of pages on a disk with these parameters.
func (p Params) Capacity() PageAddr {
	return PageAddr(p.Cylinders * p.TracksPerCyl * p.PagesPerTrack)
}

type opKind int

const (
	opRead opKind = iota
	opWrite
)

type request struct {
	kind   opKind
	page   PageAddr
	pages  int // contiguous run length; 1 for ordinary requests
	cyl    int
	waiter sim.Ref // generation-stamped: an interrupted submitter is skipped
	done   bool
	seq    int64
}

// Stats aggregates per-disk counters for reporting and tests.
type Stats struct {
	Reads      int64
	Writes     int64
	CacheHits  int64
	Destages   int64   // dirty pages flushed from the write-back cache
	DestageOps int64   // batched destage operations (arm passes)
	BusyTime   float64 // seconds the arm/controller was servicing requests
	SeekTime   float64 // seconds spent seeking
	RotTime    float64 // seconds of rotational latency
	XferTime   float64 // seconds of media transfer (incl. read-ahead)
}

// Disk is one simulated disk drive with its own service task, the arm.
type Disk struct {
	sim    *sim.Simulator
	name   string
	params Params

	queue  []*request
	free   []*request // completed requests, for submit to reuse
	server *sim.Task  // the arm; its service state is arm
	arm    arm
	idle   bool
	seq    int64

	// Fault state, driven by internal/faults through the engine's hooks.
	stalled     bool // the arm pauses between requests while set
	stallParked bool // the arm is parked waiting for the stall to clear

	curCyl  int
	sweepUp bool

	cache      map[PageAddr]bool
	cacheOrder []PageAddr // FIFO eviction
	lastRead   PageAddr   // previous read target, for sequential detection
	lastEnd    PageAddr   // page just past the last media transfer
	dirty      []PageAddr // write-back cache, sorted by address (at most WriteCachePages)
	batch      []PageAddr // destage scratch, reused across passes

	stats Stats
}

// New creates a disk and spawns its service task, the arm, on s.
func New(s *sim.Simulator, name string, params Params) *Disk {
	d := newDisk(s, name, params)
	// The arm marks itself idle at its first dispatch, not here, so that a
	// request queued before that dispatch does not wake it a second time.
	d.server = s.SpawnTaskLazy(func() string { return "disk:" + name }, d.step)
	return d
}

// newDisk returns a disk with no service task yet.
func newDisk(s *sim.Simulator, name string, params Params) *Disk {
	if params.Cylinders <= 0 || params.PagesPerTrack <= 0 || params.TracksPerCyl <= 0 {
		panic("disk: invalid geometry")
	}
	return &Disk{
		sim: s, name: name, params: params,
		cache: make(map[PageAddr]bool), lastRead: -2, lastEnd: -2,
	}
}

// Name returns the disk's name.
func (d *Disk) Name() string { return d.name }

// Stats returns a copy of the disk's counters.
func (d *Disk) Stats() Stats { return d.stats }

// Utilization returns busy time divided by elapsed virtual time.
func (d *Disk) Utilization() float64 {
	if now := d.sim.Now(); now > 0 {
		return d.stats.BusyTime / now
	}
	return 0
}

// Read performs a blocking read of one page.
func (d *Disk) Read(p *sim.Proc, page PageAddr) { d.submit(p, opRead, page, 1) }

// Write performs a blocking write of one page.
func (d *Disk) Write(p *sim.Proc, page PageAddr) { d.submit(p, opWrite, page, 1) }

// ReadRun performs a blocking scatter-gather read of n contiguous pages as a
// single request. The arm applies the same per-page mechanics (controller
// overhead, cache hits, read-ahead) as n back-to-back single reads, so the
// virtual service time of an uncontended run is identical — only the
// queueing granularity (one elevator entry, one waiter handshake) is
// coarser.
func (d *Disk) ReadRun(p *sim.Proc, page PageAddr, n int) { d.submit(p, opRead, page, n) }

// WriteRun performs a blocking scatter-gather write of n contiguous pages as
// a single request, with per-page write mechanics.
func (d *Disk) WriteRun(p *sim.Proc, page PageAddr, n int) { d.submit(p, opWrite, page, n) }

func (d *Disk) submit(p *sim.Proc, kind opKind, page PageAddr, n int) {
	if n < 1 {
		panic(fmt.Sprintf("disk %s: empty run", d.name))
	}
	if page < 0 || page+PageAddr(n) > d.params.Capacity() {
		panic(fmt.Sprintf("disk %s: run [%d,%d) out of range [0,%d)", d.name, page, page+PageAddr(n), d.params.Capacity()))
	}
	d.seq++
	var r *request
	if k := len(d.free); k > 0 {
		r, d.free = d.free[k-1], d.free[:k-1]
	} else {
		r = new(request)
	}
	*r = request{kind: kind, page: page, pages: n, cyl: d.cylOf(page), waiter: p.Ref(), seq: d.seq}
	d.queue = append(d.queue, r)
	if d.idle {
		d.idle = false
		d.server.Wake()
	}
	for !r.done {
		p.Block()
	}
	// Done means served: the request has left the queue, and the arm has
	// let go of it. A submitter interrupted while waiting never gets here,
	// so a request that may still be queued or in service is never reused;
	// the collector takes it. A kept request is cleared so that it holds no
	// finished process alive.
	*r = request{}
	d.free = append(d.free, r)
}

func (d *Disk) cylOf(page PageAddr) int {
	return int(page) / (d.params.TracksPerCyl * d.params.PagesPerTrack)
}

func (d *Disk) trackOf(page PageAddr) int {
	return int(page) / d.params.PagesPerTrack // global track index
}

func (d *Disk) sectorOf(page PageAddr) int {
	return int(page) % d.params.PagesPerTrack
}

// leg names the service leg the disk arm is holding for, which is where the
// arm resumes when its hold elapses; legTop is the arm between requests.
type leg uint8

const (
	legTop    leg = iota // between requests: stall check, next request, idle destage
	legCtrl              // controller overhead of a request page
	legHit               // controller-cache hit time, or a write absorbed by the write-back cache
	legSeek              // seek to arm.cyl
	legRotate            // rotational latency before arm.pg
	legXfer              // media transfer of arm.n pages from arm.pg
)

// arm is the disk arm's service state between two legs. The arm is a kernel
// task, so the serve loop a process would run is unrolled into legs: each
// hold ends one leg, and the state here is what the legs after it need.
type arm struct {
	leg   leg
	req   *request // request in service; nil between requests and in an idle destage
	i     int      // index of the request page in service
	pg    PageAddr // page of the current mechanical access
	n     int      // pages the current transfer moves (1 + read-ahead)
	cyl   int      // target cylinder of the seek in progress
	start float64  // time the request, or the idle destage, began service
	dest  bool     // a destage pass is in progress
	di    int      // index into batch of the page being destaged
}

// step is the arm task's step function: from the end of the leg that just
// elapsed it runs up to the start of the next one and holds for it, and
// returns when the hold parks or the arm has nothing to do.
func (d *Disk) step(t *sim.Task) {
	for {
		dt, ok := d.advance()
		if !ok || !t.Hold(dt) {
			return
		}
	}
}

// advance finishes the leg the arm was holding for and starts the next one.
// It returns that leg's duration, or ok false when the arm parks without a
// hold: idle with an empty queue, or stalled. Every state change happens
// between the same two holds as in a serve loop run by a process; a leg
// reads the state it depends on when it begins (a rotation reads lastEnd
// only after the seek before it), so a CrashRestart between two legs acts
// as it would on that process.
func (d *Disk) advance() (dt float64, ok bool) {
	a := &d.arm
	switch a.leg {
	case legCtrl:
		return d.afterCtrl()
	case legHit:
		a.i++
		return d.page()
	case legSeek:
		d.curCyl = a.cyl
		return d.seated()
	case legRotate:
		return d.transfer()
	case legXfer:
		d.lastEnd = a.pg + PageAddr(a.n)
		if a.dest {
			a.di++
			return d.destagePage()
		}
		if a.req.kind == opRead {
			for i := 1; i < a.n; i++ {
				d.cacheInsert(a.pg + PageAddr(i))
			}
		}
		a.i++
		return d.page()
	}
	return d.top()
}

// top is the arm between requests: it honours a stall, then serves the next
// request, or destages the write-back cache, or goes idle.
func (d *Disk) top() (float64, bool) {
	a := &d.arm
	a.leg = legTop
	if d.stalled {
		// An injected I/O stall: finish nothing until SetStalled(false).
		d.stallParked = true
		return 0, false
	}
	if len(d.queue) == 0 {
		// Destage the write-back cache when no requests are waiting and the
		// cache is above its low-water mark. Waiting for the mark lets
		// address-contiguous runs accumulate so a destage pass writes
		// several pages per rotation instead of one.
		if len(d.dirty) > d.params.WriteCachePages*3/4 {
			a.req = nil
			a.start = d.sim.Now()
			return d.destage()
		}
		d.idle = true
		return 0, false
	}
	a.req = d.pickElevator()
	a.start = d.sim.Now()
	a.i = 0
	return d.page()
}

// page starts the controller overhead of the request's next page, or
// completes the request once every page is served. A run request is served
// page by page with exactly the mechanics of that many back-to-back
// single-page requests; stats count pages, so per-page and batched
// submission report the same totals.
func (d *Disk) page() (float64, bool) {
	a := &d.arm
	r := a.req
	if a.i == r.pages {
		d.stats.BusyTime += d.sim.Now() - a.start
		a.req = nil
		r.done = true
		r.waiter.Unblock() // no-op if the submitter was interrupted meanwhile
		return d.top()
	}
	a.pg = r.page + PageAddr(a.i)
	if r.kind == opRead {
		d.stats.Reads++
	} else {
		d.stats.Writes++
	}
	a.leg = legCtrl
	return d.params.CtrlOverhead, true
}

// afterCtrl serves a request page once its controller overhead has elapsed.
func (d *Disk) afterCtrl() (float64, bool) {
	a := &d.arm
	page := a.pg
	if a.req.kind == opRead {
		sequential := page == d.lastRead+1
		d.lastRead = page
		if d.cache[page] || d.isDirty(page) {
			d.stats.CacheHits++
			a.leg = legHit
			return d.params.CtrlHitTime, true
		}
		// Read-ahead triggers only on a detected sequential pattern, as in
		// real controllers: the rest of the track (up to the read-ahead
		// limit) is transferred into the controller cache along with the
		// requested page.
		ahead := 0
		if sequential {
			ahead = min(d.params.PagesPerTrack-1-d.sectorOf(page), d.params.ReadAheadPages)
		}
		a.n = 1 + ahead
		return d.seek(d.cylOf(page))
	}
	delete(d.cache, page) // the write-back copy supersedes any prefetch
	if d.params.WriteCachePages <= 0 {
		// Write-through: pay the full mechanical access now.
		a.n = 1
		return d.seek(d.cylOf(page))
	}
	// Write-back: absorb the write into the controller cache, paying a
	// destage first if the cache is full.
	if i, found := slices.BinarySearch(d.dirty, page); !found {
		if len(d.dirty) >= d.params.WriteCachePages {
			return d.destage()
		}
		d.dirty = slices.Insert(d.dirty, i, page)
	}
	a.leg = legHit
	return d.params.CtrlHitTime, true
}

// seek starts moving the head to the cylinder; a head already there goes
// straight on.
func (d *Disk) seek(cyl int) (float64, bool) {
	if cyl == d.curCyl {
		return d.seated()
	}
	dist := cyl - d.curCyl
	if dist < 0 {
		dist = -dist
	}
	t := d.params.SettleTime + d.params.SeekFactor*math.Sqrt(float64(dist))
	d.stats.SeekTime += t
	d.arm.cyl = cyl
	d.arm.leg = legSeek
	return t, true
}

// seated goes on from a head on its target cylinder: to the first page of a
// destage pass, or to the rotation before a single access.
func (d *Disk) seated() (float64, bool) {
	if d.arm.dest {
		return d.destagePage()
	}
	return d.rotate()
}

// rotate starts the rotational latency before transferring arm.pg: zero
// when the transfer continues exactly where the last one ended (track skew
// lets contiguous runs stream across track boundaries), otherwise the
// expected half revolution.
func (d *Disk) rotate() (float64, bool) {
	if d.arm.pg == d.lastEnd {
		return d.transfer()
	}
	t := d.params.RotationTime / 2
	d.stats.RotTime += t
	d.arm.leg = legRotate
	return t, true
}

// transfer starts moving arm.n pages at media rate from arm.pg.
func (d *Disk) transfer() (float64, bool) {
	t := float64(d.arm.n) * d.params.RotationTime / float64(d.params.PagesPerTrack)
	d.stats.XferTime += t
	d.arm.leg = legXfer
	return t, true
}

// destage starts one batched destage pass: it picks the dirty page nearest
// to the head, seeks there once, and writes every dirty page on the same
// track during the pass. Batched write-behind is what lets sequential
// partition streams from the hybrid hash join reach near media rate instead
// of paying a rotation per page.
func (d *Disk) destage() (float64, bool) {
	batch := d.takeDestageBatch()
	if len(batch) == 0 {
		return d.destaged()
	}
	d.stats.DestageOps++
	d.arm.dest, d.arm.di = true, 0
	return d.seek(d.cylOf(batch[0]))
}

// destagePage starts writing the pass's next page, or ends the pass.
func (d *Disk) destagePage() (float64, bool) {
	a := &d.arm
	if a.di == len(d.batch) {
		a.dest = false
		return d.destaged()
	}
	pg := d.batch[a.di]
	d.cacheInsert(pg) // the written data stays in the clean cache
	d.stats.Destages++
	a.pg, a.n = pg, 1
	return d.rotate() // zero for address-contiguous runs
}

// destaged goes on after a destage pass: an idle pass counts its busy time
// and returns to the top; a pass forced by a full write-back cache absorbs
// the write that forced it.
func (d *Disk) destaged() (float64, bool) {
	a := &d.arm
	if a.req == nil {
		d.stats.BusyTime += d.sim.Now() - a.start
		return d.top()
	}
	page := a.req.page + PageAddr(a.i)
	i, _ := slices.BinarySearch(d.dirty, page)
	d.dirty = slices.Insert(d.dirty, i, page)
	a.leg = legHit
	return d.params.CtrlHitTime, true
}

// SetStalled pauses (true) or resumes (false) the disk's arm between
// requests, modelling a transient I/O fault. Requests submitted
// during a stall queue up and are served when the stall clears; a request
// already being serviced completes normally.
func (d *Disk) SetStalled(stalled bool) {
	d.stalled = stalled
	if !stalled && d.stallParked {
		d.stallParked = false
		d.server.Wake()
	}
}

// CrashRestart models the disk coming back after its site crashed: all
// volatile controller state — the clean cache, the write-back cache's dirty
// pages, and the sequential-detection state — is lost. Media contents are
// untouched (the simulator's relation extents are conceptually durable), and
// pending queued requests survive to be served; their submitters have
// typically been interrupted, so their completions go nowhere.
func (d *Disk) CrashRestart() {
	d.cache = make(map[PageAddr]bool)
	d.cacheOrder = nil
	d.dirty = d.dirty[:0]
	d.lastRead, d.lastEnd = -2, -2
}

// pickElevator removes and returns the next request under SCAN scheduling:
// continue in the current sweep direction, reversing at the extremes. Ties on
// the same cylinder are served in arrival order.
func (d *Disk) pickElevator() *request {
	if d.params.FIFOScheduling {
		r := d.queue[0]
		d.queue = d.queue[1:]
		return r
	}
	best := -1
	for pass := 0; pass < 2; pass++ {
		for i, r := range d.queue {
			inDir := (d.sweepUp && r.cyl >= d.curCyl) || (!d.sweepUp && r.cyl <= d.curCyl)
			if !inDir {
				continue
			}
			if best == -1 || closer(d.queue[i], d.queue[best], d.curCyl, d.sweepUp) {
				best = i
			}
		}
		if best >= 0 {
			break
		}
		d.sweepUp = !d.sweepUp // nothing ahead; reverse
	}
	if best == -1 { // should not happen: queue non-empty
		best = 0
	}
	r := d.queue[best]
	d.queue = append(d.queue[:best], d.queue[best+1:]...)
	return r
}

func closer(a, b *request, cur int, up bool) bool {
	da, db := a.cyl-cur, b.cyl-cur
	if !up {
		da, db = -da, -db
	}
	if da != db {
		return da < db
	}
	return a.seq < b.seq
}

// isDirty reports whether the page is in the write-back cache.
func (d *Disk) isDirty(page PageAddr) bool {
	_, found := slices.BinarySearch(d.dirty, page)
	return found
}

// takeDestageBatch removes the next destage pass's pages from the write-back
// cache and returns them in address order. The pass starts at the dirty page
// nearest the head's cylinder (ties: the lower page address) and takes every
// dirty page on that page's track, which in the sorted cache is one
// contiguous run. The result aliases d.batch and is valid until the next call.
func (d *Disk) takeDestageBatch() []PageAddr {
	n := len(d.dirty)
	if n == 0 {
		return nil
	}
	perCyl := PageAddr(d.params.TracksPerCyl * d.params.PagesPerTrack)
	// dirty[up] is the lowest dirty page at or beyond the head's cylinder;
	// dirty[up-1], if any, is the highest one below it.
	up, _ := slices.BinarySearch(d.dirty, PageAddr(d.curCyl)*perCyl)
	start := up
	if up > 0 {
		below := d.cylOf(d.dirty[up-1])
		if up == n || d.curCyl-below <= d.cylOf(d.dirty[up])-d.curCyl {
			// The cylinder below is at least as near, and its pages have the
			// lower addresses: start from its lowest dirty page.
			start, _ = slices.BinarySearch(d.dirty[:up], PageAddr(below)*perCyl)
		}
	}
	track := d.trackOf(d.dirty[start])
	end := start + 1
	for end < n && d.trackOf(d.dirty[end]) == track {
		end++
	}
	d.batch = append(d.batch[:0], d.dirty[start:end]...)
	d.dirty = slices.Delete(d.dirty, start, end)
	return d.batch
}

func (d *Disk) cacheInsert(page PageAddr) {
	if d.cache[page] {
		return
	}
	if len(d.cacheOrder) >= d.params.CtrlCachePages {
		old := d.cacheOrder[0]
		d.cacheOrder = d.cacheOrder[1:]
		delete(d.cache, old)
	}
	d.cache[page] = true
	d.cacheOrder = append(d.cacheOrder, page)
}

// Params returns the disk's configuration.
func (d *Disk) Params() Params { return d.params }
