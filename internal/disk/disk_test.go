package disk

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hybridship/internal/sim"
)

// measure runs a workload of blocking page reads and returns the average
// service time per page in seconds.
func measureReads(pages []PageAddr, params Params) float64 {
	s := sim.New()
	d := New(s, "d0", params)
	s.Spawn("reader", func(p *sim.Proc) {
		for _, pg := range pages {
			d.Read(p, pg)
		}
	})
	end := s.Run()
	return end / float64(len(pages))
}

// TestDiskCalibration checks the aggregates the paper reports for its own
// cost-model calibration (§4.1): roughly 3.5 ms per page for sequential I/O
// and 11.8 ms per page for random I/O.
func TestDiskCalibration(t *testing.T) {
	params := DefaultParams()

	var seq []PageAddr
	for i := 0; i < 2000; i++ {
		seq = append(seq, PageAddr(i))
	}
	seqAvg := measureReads(seq, params)

	rng := rand.New(rand.NewSource(7))
	var rnd []PageAddr
	for i := 0; i < 2000; i++ {
		rnd = append(rnd, PageAddr(rng.Int63n(int64(params.Capacity()))))
	}
	rndAvg := measureReads(rnd, params)

	t.Logf("sequential %.2f ms/page, random %.2f ms/page", seqAvg*1000, rndAvg*1000)
	if seqAvg < 0.0030 || seqAvg > 0.0040 {
		t.Errorf("sequential avg = %.2f ms/page, want 3.5 +- 0.5", seqAvg*1000)
	}
	if rndAvg < 0.0105 || rndAvg > 0.0131 {
		t.Errorf("random avg = %.2f ms/page, want 11.8 +- 1.3", rndAvg*1000)
	}
	if rndAvg < 2*seqAvg {
		t.Errorf("random (%.2f ms) should cost well over 2x sequential (%.2f ms)", rndAvg*1000, seqAvg*1000)
	}
}

func TestReadAheadHitsCache(t *testing.T) {
	s := sim.New()
	params := DefaultParams()
	d := New(s, "d0", params)
	s.Spawn("reader", func(p *sim.Proc) {
		for i := 0; i < params.PagesPerTrack; i++ {
			d.Read(p, PageAddr(i))
		}
	})
	s.Run()
	st := d.Stats()
	// Page 0 is a cold miss (no sequential pattern yet); page 1 misses and
	// prefetches the rest of the track; the remaining pages hit.
	want := int64(params.PagesPerTrack - 2)
	if st.CacheHits != want {
		t.Errorf("cache hits = %d, want %d", st.CacheHits, want)
	}
}

func TestWriteBackCache(t *testing.T) {
	s := sim.New()
	params := DefaultParams()
	d := New(s, "d0", params)
	var writeTime float64
	s.Spawn("w", func(p *sim.Proc) {
		t0 := s.Now()
		d.Write(p, 100)
		writeTime = s.Now() - t0
		d.Read(p, 100) // must hit the dirty write-back copy, not the platter
	})
	s.Run()
	fast := params.CtrlOverhead + params.CtrlHitTime + 1e-9
	if writeTime > fast {
		t.Errorf("write-back write took %.3f ms, want cache-speed (<= %.3f ms)",
			writeTime*1000, fast*1000)
	}
	st := d.Stats()
	if st.CacheHits != 1 {
		t.Errorf("read of dirty page: cache hits = %d, want 1", st.CacheHits)
	}
	// A single dirty page sits below the low-water mark; no destage is
	// forced or performed while the cache is nearly empty.
	if st.Destages != 0 {
		t.Errorf("destages = %d, want 0 (below low-water mark)", st.Destages)
	}
}

func TestWriteThroughWhenCacheDisabled(t *testing.T) {
	s := sim.New()
	params := DefaultParams()
	params.WriteCachePages = 0
	d := New(s, "d0", params)
	var writeTime float64
	s.Spawn("w", func(p *sim.Proc) {
		t0 := s.Now()
		d.Write(p, 5000)
		writeTime = s.Now() - t0
	})
	s.Run()
	// Must pay mechanical access: well above controller speed.
	if writeTime < 0.004 {
		t.Errorf("write-through write took %.3f ms, expected a mechanical access", writeTime*1000)
	}
}

func TestWriteCacheFullForcesDestage(t *testing.T) {
	s := sim.New()
	params := DefaultParams()
	params.WriteCachePages = 4
	d := New(s, "d0", params)
	s.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			d.Write(p, PageAddr(i*1000))
		}
	})
	s.Run()
	st := d.Stats()
	// With 10 writes and a 4-page cache, at least 6 destages must have been
	// forced while the writer was still running. (Pages left dirty when the
	// simulation's last non-daemon process exits stay in the cache.)
	if st.Destages < 6 {
		t.Errorf("destages = %d, want >= 6 forced by cache pressure", st.Destages)
	}
}

func TestElevatorOrdersBySweep(t *testing.T) {
	s := sim.New()
	params := DefaultParams()
	d := New(s, "d0", params)
	pagesPerCyl := PageAddr(params.TracksPerCyl * params.PagesPerTrack)

	var order []int
	// Hold the disk busy with one request, then queue requests at cylinders
	// 500, 100, 300 while it is busy; the upward sweep from cylinder 0 must
	// serve them as 100, 300, 500.
	s.Spawn("warm", func(p *sim.Proc) {
		d.Read(p, 0)
	})
	for _, cyl := range []int{500, 100, 300} {
		cyl := cyl
		s.Spawn(fmt.Sprintf("r%d", cyl), func(p *sim.Proc) {
			p.Hold(0.0001) // arrive while the warm request is in service
			d.Read(p, PageAddr(cyl)*pagesPerCyl)
			order = append(order, cyl)
		})
	}
	s.Run()
	want := []int{100, 300, 500}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("elevator order = %v, want %v", order, want)
	}
}

func TestElevatorReversesSweep(t *testing.T) {
	s := sim.New()
	params := DefaultParams()
	d := New(s, "d0", params)
	pagesPerCyl := PageAddr(params.TracksPerCyl * params.PagesPerTrack)

	var order []int
	// Warm the head up to cylinder 800, then queue 700, 900 while busy.
	// Sweep is upward: serve 900 first, then reverse down to 700.
	s.Spawn("warm", func(p *sim.Proc) {
		d.Read(p, 800*pagesPerCyl)
		p.Hold(1.0)
		got := append([]int(nil), order...)
		if fmt.Sprint(got) != fmt.Sprint([]int{900, 700}) {
			t.Errorf("sweep order = %v, want [900 700]", got)
		}
	})
	for _, cyl := range []int{700, 900} {
		cyl := cyl
		s.Spawn(fmt.Sprintf("r%d", cyl), func(p *sim.Proc) {
			p.Hold(0.001)
			d.Read(p, PageAddr(cyl)*pagesPerCyl)
			order = append(order, cyl)
		})
	}
	s.Run()
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range page")
		}
	}()
	s := sim.New()
	d := New(s, "d0", DefaultParams())
	s.Spawn("r", func(p *sim.Proc) {
		d.Read(p, d.params.Capacity())
	})
	s.Run()
}

func TestUtilizationAndBusyTime(t *testing.T) {
	s := sim.New()
	d := New(s, "d0", DefaultParams())
	s.Spawn("r", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			d.Read(p, PageAddr(i))
		}
	})
	end := s.Run()
	st := d.Stats()
	if st.BusyTime <= 0 || st.BusyTime > end+1e-9 {
		t.Errorf("busy time %.4f out of range (0, %.4f]", st.BusyTime, end)
	}
	// A single synchronous reader keeps the disk busy almost continuously.
	if u := d.Utilization(); u < 0.95 {
		t.Errorf("utilization %.2f, want >= 0.95 for a saturating reader", u)
	}
	if st.Reads != 100 {
		t.Errorf("reads = %d, want 100", st.Reads)
	}
}

func TestConcurrentReadersInterfere(t *testing.T) {
	// A sequential scan alone must be much faster per page than the same scan
	// with a random-read process hammering the same disk — the interference
	// effect behind the paper's Figure 3.
	params := DefaultParams()
	scanPages := 600

	alone := func() float64 {
		s := sim.New()
		d := New(s, "d0", params)
		var dur float64
		s.Spawn("scan", func(p *sim.Proc) {
			for i := 0; i < scanPages; i++ {
				d.Read(p, PageAddr(i))
			}
			dur = s.Now()
		})
		s.Run()
		return dur
	}()

	shared := func() float64 {
		s := sim.New()
		d := New(s, "d0", params)
		var dur float64
		s.Spawn("scan", func(p *sim.Proc) {
			for i := 0; i < scanPages; i++ {
				d.Read(p, PageAddr(i))
			}
			dur = s.Now()
		})
		s.SpawnDaemonLazy(func() string { return "random-load" }, func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(3))
			for {
				d.Read(p, PageAddr(rng.Int63n(int64(params.Capacity()))))
				p.Hold(0.005)
			}
		})
		s.Run()
		return dur
	}()

	if shared < alone*1.5 {
		t.Errorf("shared scan %.3fs vs alone %.3fs: expected >= 1.5x slowdown from interference", shared, alone)
	}
}

func BenchmarkDiskCalibration(b *testing.B) {
	params := DefaultParams()
	for i := 0; i < b.N; i++ {
		var seq []PageAddr
		for j := 0; j < 500; j++ {
			seq = append(seq, PageAddr(j))
		}
		measureReads(seq, params)
	}
}

// TestStallDelaysQueuedRequests checks the injected I/O stall: a request
// submitted while the disk is stalled waits for the resume and is then served
// with exactly its normal mechanics — the stall shifts, it does not stretch,
// the service.
func TestStallDelaysQueuedRequests(t *testing.T) {
	baseline := func(stall bool) float64 {
		s := sim.New()
		d := New(s, "d0", DefaultParams())
		if stall {
			d.SetStalled(true)
			s.Spawn("ops", func(p *sim.Proc) {
				p.Hold(0.05)
				d.SetStalled(false)
			})
		}
		var done float64
		s.Spawn("reader", func(p *sim.Proc) {
			d.Read(p, 0)
			done = s.Now()
		})
		s.Run()
		return done
	}
	plain := baseline(false)
	stalled := baseline(true)
	if diff := stalled - (0.05 + plain); diff > 1e-12 || diff < -1e-12 {
		t.Errorf("stalled read finished at %g, want resume time + plain service = %g", stalled, 0.05+plain)
	}
}

// TestStallSparesInFlightRequest checks that a stall raised mid-service lets
// the request being served complete normally: the stall flag is honored only
// between requests.
func TestStallSparesInFlightRequest(t *testing.T) {
	run := func(stallAt float64) float64 {
		s := sim.New()
		d := New(s, "d0", DefaultParams())
		if stallAt > 0 {
			s.Spawn("ops", func(p *sim.Proc) {
				p.Hold(stallAt)
				d.SetStalled(true)
			})
		}
		var done float64
		s.Spawn("reader", func(p *sim.Proc) {
			d.ReadRun(p, 0, 200)
			done = s.Now()
		})
		s.Run()
		return done
	}
	plain := run(0)
	if plain < 0.2 {
		t.Fatalf("200-page run took %g s; too fast for the stall to land mid-service", plain)
	}
	midStalled := run(plain / 2)
	if midStalled != plain {
		t.Errorf("run with mid-service stall finished at %g, want %g (in-flight request must complete)", midStalled, plain)
	}
}

// TestCrashRestartDropsCache checks that CrashRestart loses the volatile
// cache: a page that was a cache hit before the crash costs full mechanical
// service again after it.
func TestCrashRestartDropsCache(t *testing.T) {
	s := sim.New()
	d := New(s, "d0", DefaultParams())
	var hit, postCrash float64
	s.Spawn("reader", func(p *sim.Proc) {
		// Reads of pages 0 and 1 establish a sequential pattern; the second
		// triggers read-ahead, prefetching the following pages.
		d.Read(p, 0)
		d.Read(p, 1)

		start := s.Now()
		d.Read(p, 2)
		hit = s.Now() - start

		d.CrashRestart()
		start = s.Now()
		d.Read(p, 3) // was prefetched too, but the crash dropped it
		postCrash = s.Now() - start
	})
	s.Run()
	if hit > 0.001 {
		t.Fatalf("read of prefetched page took %g s; expected a controller cache hit", hit)
	}
	if postCrash < 2*hit || postCrash < 0.002 {
		t.Errorf("post-crash read took %g s, want full mechanical service (hit was %g)", postCrash, hit)
	}
}

// refDestageBatch is the map-based destage selection the sorted write-back
// cache replaced, kept as the reference for TestDestageOrderMatchesReference:
// the dirty page nearest the head's cylinder (ties: the lower address), then
// every dirty page on its track in address order.
func refDestageBatch(d *Disk, dirty map[PageAddr]bool) []PageAddr {
	var best PageAddr = -1
	bestDist := 1 << 30
	for pg := range dirty {
		dist := d.cylOf(pg) - d.curCyl
		if dist < 0 {
			dist = -dist
		}
		if dist < bestDist || (dist == bestDist && pg < best) {
			best, bestDist = pg, dist
		}
	}
	var batch []PageAddr
	for pg := range dirty {
		if d.trackOf(pg) == d.trackOf(best) {
			batch = append(batch, pg)
		}
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i] < batch[j] })
	return batch
}

// TestDestageOrderMatchesReference drives the sorted write-back cache and the
// map-based reference through the same seeded mix of writes, membership
// probes and destage passes from random head positions. Pages cluster on a
// few dozen cylinders so equal-distance ties above and below the head are
// common.
func TestDestageOrderMatchesReference(t *testing.T) {
	params := DefaultParams()
	perCyl := params.TracksPerCyl * params.PagesPerTrack
	rng := rand.New(rand.NewSource(15))
	d := &Disk{params: params}
	ref := make(map[PageAddr]bool)
	passes := 0
	for step := 0; step < 20000; step++ {
		page := PageAddr(rng.Intn(40 * perCyl))
		if rng.Intn(50) == 0 {
			page = PageAddr(rng.Int63n(int64(params.Capacity())))
		}
		if d.isDirty(page) != ref[page] {
			t.Fatalf("step %d: isDirty(%d) = %v, reference %v", step, page, !ref[page], ref[page])
		}
		if rng.Intn(3) > 0 && len(ref) < params.WriteCachePages {
			if i, found := slices.BinarySearch(d.dirty, page); !found {
				d.dirty = slices.Insert(d.dirty, i, page)
			}
			ref[page] = true
			continue
		}
		if len(ref) == 0 {
			continue
		}
		d.curCyl = rng.Intn(45)
		want := refDestageBatch(d, ref)
		got := d.takeDestageBatch()
		if !slices.Equal(got, want) {
			t.Fatalf("step %d, head at cylinder %d: destage batch %v, reference %v", step, d.curCyl, got, want)
		}
		for _, pg := range want {
			delete(ref, pg)
		}
		if len(d.dirty) != len(ref) {
			t.Fatalf("step %d: %d dirty pages left, reference %d", step, len(d.dirty), len(ref))
		}
		passes++
	}
	if passes < 1000 {
		t.Fatalf("only %d destage passes exercised", passes)
	}
}

// TestWarmRunsZeroAlloc pins the request free list: once a disk has served
// a few runs, submitting more reads and writes allocates nothing.
func TestWarmRunsZeroAlloc(t *testing.T) {
	s := sim.New()
	d := New(s, "d0", DefaultParams())
	var allocs float64
	s.Spawn("io", func(p *sim.Proc) {
		run := func() {
			d.ReadRun(p, 0, 8)
			d.WriteRun(p, 4096, 8)
			d.Read(p, 64)
		}
		for i := 0; i < 16; i++ { // warm the free list, cache and heap
			run()
		}
		allocs = testing.AllocsPerRun(100, run)
	})
	s.Run()
	if allocs != 0 {
		t.Errorf("warm disk runs allocate %v per round, want 0", allocs)
	}
}

// TestEarlyReaderMatchesLateReader pins the arm's start: a reader spawned
// before the disk, whose first read reaches the disk ahead of the arm's
// first dispatch, must see the same service times as a reader spawned after
// the disk, on the arm task and on the reference serve loop alike. An arm
// marked idle before that dispatch is woken twice by such a read, and the
// spare wake cuts the holds of the legs after it short.
func TestEarlyReaderMatchesLateReader(t *testing.T) {
	type reader interface{ Read(*sim.Proc, PageAddr) }
	for _, tc := range []struct {
		name string
		mk   func(*sim.Simulator) reader
	}{
		{"task", func(s *sim.Simulator) reader { return New(s, "d0", DefaultParams()) }},
		{"reference", func(s *sim.Simulator) reader { return newRefDisk(s, "d0", DefaultParams()) }},
	} {
		times := func(early bool) []float64 {
			s := sim.New()
			var d reader
			var out []float64
			read := func(p *sim.Proc) {
				for _, pg := range []PageAddr{100, 5000, 40000} {
					start := s.Now()
					d.Read(p, pg)
					out = append(out, s.Now()-start)
				}
			}
			if early {
				s.Spawn("reader", read)
				d = tc.mk(s)
			} else {
				d = tc.mk(s)
				s.Spawn("reader", read)
			}
			s.Run()
			return out
		}
		if early, late := times(true), times(false); !slices.Equal(early, late) {
			t.Errorf("%s: early reader's read times %v, late reader's %v", tc.name, early, late)
		}
	}
}
