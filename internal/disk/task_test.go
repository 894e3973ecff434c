package disk

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hybridship/internal/sim"
)

// diskUnderTest is the surface a script drives: the arm task (*Disk) and
// the coroutine reference (*refDisk) both provide it.
type diskUnderTest interface {
	Read(p *sim.Proc, page PageAddr)
	Write(p *sim.Proc, page PageAddr)
	ReadRun(p *sim.Proc, page PageAddr, n int)
	WriteRun(p *sim.Proc, page PageAddr, n int)
	SetStalled(stalled bool)
	CrashRestart()
	Stats() Stats
}

// scriptRun is everything one run of a disk script can be compared on.
type scriptRun struct {
	Stats      Stats
	Done       [][]float64 // per submitter: completion time of each op, -1 if interrupted
	End        float64
	Dispatched int64
	Trace      []string // (time, name) per dispatch; traced runs only
}

// runDiskScript decodes data into a disk configuration and a script of
// actors, and runs it on a fresh simulator against the disk newDisk builds.
//
// The first byte picks the configuration: FIFO or SCAN, write-through or a
// small write-back cache (so forced and idle destages are frequent), and
// whether the fault process interrupts submitters. The rest is read three bytes at a time as
// (actor, op, arg). Actors 0–2 are submitters: single-page reads and
// writes, ReadRun/WriteRun runs, and holds, some of them exactly a disk
// leg's length so that their wakeups tie with the arm's. Actor 3 is a fault
// process: it holds, stalls and resumes the disk, crashes its controller
// state, storms of either at a sub-leg grain, and (when enabled) interrupts a
// submitter, which recovers and goes on to its next op. Pages cluster on a
// few cylinders so that cache hits, read-ahead and destage batches are
// common.
func runDiskScript(data []byte, traced bool, newDisk func(*sim.Simulator, Params) diskUnderTest) scriptRun {
	params := DefaultParams()
	params.CtrlCachePages = 8
	var flags byte
	if len(data) > 0 {
		flags, data = data[0], data[1:]
	}
	params.FIFOScheduling = flags&1 != 0
	if flags&2 != 0 {
		params.WriteCachePages = 0
	} else {
		params.WriteCachePages = 2 + int(flags>>4)
	}
	interrupts := flags&4 != 0

	s := sim.New()
	var run scriptRun
	if traced {
		s.Trace = func(t sim.Time, name string) {
			run.Trace = append(run.Trace, fmt.Sprintf("%.17g %s", t, name))
		}
	}
	d := newDisk(s, params)

	legs := []float64{
		params.CtrlOverhead, params.CtrlHitTime, params.RotationTime / 2,
		params.RotationTime / float64(params.PagesPerTrack),
		params.CtrlOverhead + params.CtrlHitTime, 0,
	}
	perCyl := params.TracksPerCyl * params.PagesPerTrack
	page := func(arg byte) PageAddr {
		if arg >= 240 {
			return PageAddr(int(arg) * 97 % int(params.Capacity()-8))
		}
		return PageAddr(int(arg) % (6 * perCyl))
	}
	holdOf := func(arg byte) float64 {
		if arg%2 == 0 {
			return legs[int(arg/2)%len(legs)]
		}
		return float64(arg) * 1e-4
	}

	type op struct{ kind, arg byte }
	var scripts [4][]op
	for ; len(data) >= 3; data = data[3:] {
		a := data[0] % 4
		scripts[a] = append(scripts[a], op{data[1], data[2]})
	}

	var subs [3]*sim.Proc
	run.Done = make([][]float64, 3)
	for i := 0; i < 3; i++ {
		i := i
		subs[i] = s.Spawn(fmt.Sprintf("sub%d", i), func(p *sim.Proc) {
			for _, o := range scripts[i] {
				done := func() (interrupted bool) {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(sim.Interrupted); !ok {
								panic(r)
							}
							interrupted = true
						}
					}()
					switch o.kind % 6 {
					case 0:
						d.Read(p, page(o.arg))
					case 1:
						d.Write(p, page(o.arg))
					case 2:
						d.ReadRun(p, page(o.arg), 1+int(o.arg%5))
					case 3:
						d.WriteRun(p, page(o.arg), 1+int(o.arg%5))
					default:
						p.Hold(holdOf(o.arg))
					}
					return false
				}()
				t := s.Now()
				if done {
					t = -1
				}
				run.Done[i] = append(run.Done[i], t)
			}
		})
	}
	s.Spawn("faults", func(p *sim.Proc) {
		for _, o := range scripts[3] {
			// A storm op repeats its fault at a fine grain, so that some
			// land inside every kind of service leg.
			grain := float64(1+o.arg%16) * 1e-4
			switch o.kind % 7 {
			case 0:
				p.Hold(holdOf(o.arg))
			case 1:
				d.SetStalled(true)
			case 2:
				d.SetStalled(false)
			case 3:
				d.CrashRestart()
			case 4:
				if interrupts {
					subs[o.arg%3].Interrupt("fault")
				}
			case 5:
				for k := 0; k < 20; k++ {
					p.Hold(grain)
					d.CrashRestart()
				}
			case 6:
				for k := 0; k < 10; k++ {
					p.Hold(grain)
					d.SetStalled(true)
					p.Hold(grain)
					d.SetStalled(false)
				}
			}
		}
		d.SetStalled(false) // never leave queued requests stalled for good
	})
	run.End = s.Run()
	run.Stats = d.Stats()
	run.Dispatched = s.Dispatched()
	return run
}

func newTaskDisk(s *sim.Simulator, params Params) diskUnderTest { return New(s, "d0", params) }
func newProcDisk(s *sim.Simulator, params Params) diskUnderTest {
	return newRefDisk(s, "d0", params)
}

// checkDiskScript runs the script on the arm task and on the coroutine
// reference, traced and untraced, and requires bit-equal results.
func checkDiskScript(t *testing.T, data []byte) {
	t.Helper()
	for _, traced := range []bool{false, true} {
		got := runDiskScript(data, traced, newTaskDisk)
		want := runDiskScript(data, traced, newProcDisk)
		if reflect.DeepEqual(got, want) {
			continue
		}
		for i := range min(len(got.Trace), len(want.Trace)) {
			if got.Trace[i] != want.Trace[i] {
				t.Fatalf("script %x: dispatch %d is %q on the arm task, %q on the serve-loop process",
					data, i, got.Trace[i], want.Trace[i])
			}
		}
		got.Trace, want.Trace = nil, nil
		t.Fatalf("traced=%v: arm task diverged from the serve-loop process on script %x\n got %+v\nwant %+v",
			traced, data, got, want)
	}
}

// TestDiskTaskMatchesProcess runs seeded random scripts through
// checkDiskScript; FuzzDiskTaskMatchesProcess searches further.
func TestDiskTaskMatchesProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 300; i++ {
		data := make([]byte, 1+3*(5+rng.Intn(60)))
		rng.Read(data)
		checkDiskScript(t, data)
	}
}

// TestDiskScriptsExercise guards the generator: across the seeded scripts,
// every service path the arm has must actually run, or the equality above
// proves less than it claims.
func TestDiskScriptsExercise(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var sum Stats
	interrupted := 0
	for i := 0; i < 300; i++ {
		data := make([]byte, 1+3*(5+rng.Intn(60)))
		rng.Read(data)
		r := runDiskScript(data, false, newTaskDisk)
		st := r.Stats
		sum.Reads += st.Reads
		sum.Writes += st.Writes
		sum.CacheHits += st.CacheHits
		sum.DestageOps += st.DestageOps
		sum.SeekTime += st.SeekTime
		sum.RotTime += st.RotTime
		for _, done := range r.Done {
			for _, at := range done {
				if at < 0 {
					interrupted++
				}
			}
		}
	}
	if sum.Reads == 0 || sum.Writes == 0 || sum.CacheHits == 0 || sum.DestageOps == 0 ||
		sum.SeekTime == 0 || sum.RotTime == 0 || interrupted == 0 {
		t.Fatalf("scripts miss a service path: %+v, %d interrupted ops", sum, interrupted)
	}
}

// FuzzDiskTaskMatchesProcess is the differential oracle for the arm task:
// any script must give the same Stats, completion times, dispatch count and
// (time, name) dispatch trace on the task and on the coroutine serve loop.
func FuzzDiskTaskMatchesProcess(f *testing.F) {
	f.Add([]byte{0, 0, 0, 5, 1, 1, 5, 2, 2, 7})
	f.Add([]byte{1, 0, 3, 9, 3, 1, 0, 3, 0, 2, 0, 2, 40})
	f.Add([]byte{2, 0, 1, 3, 1, 1, 4, 3, 3, 0, 0, 2, 200, 2, 0, 8})
	f.Add([]byte{4, 0, 0, 250, 3, 0, 1, 3, 4, 0, 1, 1, 9, 3, 2, 0})
	f.Add([]byte{0x30, 0, 1, 1, 0, 1, 2, 0, 1, 3, 0, 1, 4, 1, 1, 5, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1+3*200 {
			data = data[:1+3*200]
		}
		checkDiskScript(t, data)
	})
}
