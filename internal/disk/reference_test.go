package disk

import (
	"fmt"
	"math"
	"slices"

	"hybridship/internal/sim"
)

// refDisk is the reference the arm task is checked against: the disk as it
// was when a daemon process ran its serve loop. It shares Disk's state and
// its pure helpers (the elevator, the caches, the destage selection); the
// loop, its service legs and the submit and stall paths that wake it are
// kept below as they were, with a process instead of a task.
type refDisk struct {
	*Disk
	server *sim.Proc
}

// newRefDisk is New with the coroutine serve loop as the service process.
func newRefDisk(s *sim.Simulator, name string, params Params) *refDisk {
	d := &refDisk{Disk: newDisk(s, name, params)}
	d.server = s.SpawnDaemonLazy(func() string { return "disk:" + name }, d.serve)
	return d
}

func (d *refDisk) Read(p *sim.Proc, page PageAddr)            { d.submit(p, opRead, page, 1) }
func (d *refDisk) Write(p *sim.Proc, page PageAddr)           { d.submit(p, opWrite, page, 1) }
func (d *refDisk) ReadRun(p *sim.Proc, page PageAddr, n int)  { d.submit(p, opRead, page, n) }
func (d *refDisk) WriteRun(p *sim.Proc, page PageAddr, n int) { d.submit(p, opWrite, page, n) }

func (d *refDisk) SetStalled(stalled bool) {
	d.stalled = stalled
	if !stalled && d.stallParked {
		d.stallParked = false
		d.server.Unblock()
	}
}

func (d *refDisk) submit(p *sim.Proc, kind opKind, page PageAddr, n int) {
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
		d.server.Unblock()
	}
	for !r.done {
		p.Block()
	}
	// Done means served: the request has left the queue, and the service
	// process has let go of it. A submitter interrupted while waiting never
	// gets here, so a request that may still be queued or in service is
	// never reused; the collector takes it. A kept request is cleared so
	// that it holds no finished process alive.
	*r = request{}
	d.free = append(d.free, r)
}

func (d *refDisk) serve(p *sim.Proc) {
	lowWater := d.params.WriteCachePages * 3 / 4
	for {
		for d.stalled {
			// An injected I/O stall: finish nothing until SetStalled(false).
			d.stallParked = true
			p.Block()
		}
		if len(d.queue) == 0 {
			// Destage the write-back cache when no requests are waiting and
			// the cache is above its low-water mark. Waiting for the mark
			// lets address-contiguous runs accumulate so a destage pass
			// writes several pages per rotation instead of one.
			if len(d.dirty) > lowWater {
				start := d.sim.Now()
				d.destageOne(p)
				d.stats.BusyTime += d.sim.Now() - start
				continue
			}
			d.idle = true
			p.Block()
			continue // re-check the stall flag before serving
		}
		r := d.pickElevator()
		start := d.sim.Now()
		// A run request is serviced page by page with exactly the mechanics
		// of that many back-to-back single-page requests; stats count pages,
		// so per-page and batched submission report the same totals.
		for i := 0; i < r.pages; i++ {
			pg := r.page + PageAddr(i)
			switch r.kind {
			case opRead:
				d.stats.Reads++
				d.serviceRead(p, pg, d.cylOf(pg))
			case opWrite:
				d.stats.Writes++
				d.serviceWrite(p, pg, d.cylOf(pg))
			}
		}
		d.stats.BusyTime += d.sim.Now() - start
		r.done = true
		r.waiter.Unblock() // no-op if the submitter was interrupted meanwhile
	}
}

func (d *refDisk) serviceRead(p *sim.Proc, page PageAddr, cyl int) {
	p.Hold(d.params.CtrlOverhead)
	sequential := page == d.lastRead+1
	d.lastRead = page
	if d.cache[page] || d.isDirty(page) {
		d.stats.CacheHits++
		p.Hold(d.params.CtrlHitTime)
		return
	}
	d.seekTo(p, cyl)
	d.rotateTo(p, page)
	// Read-ahead triggers only on a detected sequential pattern, as in real
	// controllers: the rest of the track (up to the read-ahead limit) is
	// transferred into the controller cache along with the requested page.
	ahead := 0
	if sequential {
		ahead = d.params.PagesPerTrack - 1 - d.sectorOf(page)
		if ahead > d.params.ReadAheadPages {
			ahead = d.params.ReadAheadPages
		}
	}
	d.transfer(p, page, 1+ahead)
	for i := 1; i <= ahead; i++ {
		d.cacheInsert(page + PageAddr(i))
	}
}

func (d *refDisk) serviceWrite(p *sim.Proc, page PageAddr, cyl int) {
	p.Hold(d.params.CtrlOverhead)
	delete(d.cache, page) // the write-back copy supersedes any prefetch
	if d.params.WriteCachePages <= 0 {
		// Write-through: pay the full mechanical access now.
		d.seekTo(p, cyl)
		d.rotateTo(p, page)
		d.transfer(p, page, 1)
		return
	}
	// Write-back: absorb the write into the controller cache, paying a
	// destage first if the cache is full.
	if i, found := slices.BinarySearch(d.dirty, page); !found {
		if len(d.dirty) >= d.params.WriteCachePages {
			d.destageOne(p)
			i, _ = slices.BinarySearch(d.dirty, page)
		}
		d.dirty = slices.Insert(d.dirty, i, page)
	}
	p.Hold(d.params.CtrlHitTime)
}

// seekTo moves the head to the cylinder, charging seek time, and returns.
func (d *refDisk) seekTo(p *sim.Proc, cyl int) {
	if cyl == d.curCyl {
		return
	}
	dist := cyl - d.curCyl
	if dist < 0 {
		dist = -dist
	}
	t := d.params.SettleTime + d.params.SeekFactor*math.Sqrt(float64(dist))
	d.stats.SeekTime += t
	p.Hold(t)
	d.curCyl = cyl
}

// rotateTo charges rotational latency before transferring the given page:
// zero when the transfer continues exactly where the last one ended (track
// skew lets contiguous runs stream across track boundaries), otherwise the
// expected half revolution.
func (d *refDisk) rotateTo(p *sim.Proc, page PageAddr) {
	if page == d.lastEnd {
		return
	}
	t := d.params.RotationTime / 2
	d.stats.RotTime += t
	p.Hold(t)
}

// transfer moves pages at media rate, starting at the given address.
func (d *refDisk) transfer(p *sim.Proc, start PageAddr, pages int) {
	t := float64(pages) * d.params.RotationTime / float64(d.params.PagesPerTrack)
	d.stats.XferTime += t
	p.Hold(t)
	d.lastEnd = start + PageAddr(pages)
}

// destageOne flushes dirty pages in one batched mechanical operation: it
// picks the dirty page nearest to the head, seeks there once, and writes
// every dirty page on the same track during the pass. Batched write-behind
// is what lets sequential partition streams from the hybrid hash join reach
// near media rate instead of paying a rotation per page.
func (d *refDisk) destageOne(p *sim.Proc) {
	batch := d.takeDestageBatch()
	if len(batch) == 0 {
		return
	}
	d.stats.DestageOps++
	d.seekTo(p, d.cylOf(batch[0]))
	for _, pg := range batch {
		d.cacheInsert(pg) // the written data stays in the clean cache
		d.stats.Destages++
		d.rotateTo(p, pg) // zero for address-contiguous runs
		d.transfer(p, pg, 1)
	}
}
