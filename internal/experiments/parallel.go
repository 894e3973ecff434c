package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hybridship/internal/stats"
)

// parallelFor runs fn(0..n-1) on a GOMAXPROCS-bounded worker pool and waits
// for all of them. Each task must write its result into a distinct,
// preallocated slot keyed by its index; callers then assemble the figure in
// the original sequential order (grid does both for repeated cells). Because every task derives its randomness
// from seedFor coordinates (never from a shared stream) and the assembly
// order is fixed, figure outputs are byte-identical to a sequential run for
// any GOMAXPROCS or scheduling.
//
// Errors are collected per index and the lowest-index one is returned —
// the same error a sequential loop would have reported first.
func parallelFor(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// grid runs cell(i, rep) for every cell i < n and repetition rep < reps on
// the parallelFor pool and returns each cell's results in rep order,
// out[i][rep]. It is the one harness behind every repeated measurement: the
// paper reports each data point as a mean with a 90% confidence interval
// over repetitions (§3.1.1), and a driver only says what one (cell, rep)
// measures.
func grid[T any](n, reps int, cell func(i, rep int) (T, error)) ([][]T, error) {
	flat := make([]T, n*reps)
	err := parallelFor(len(flat), func(k int) error {
		var err error
		flat[k], err = cell(k/reps, k%reps)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([][]T, n)
	for i := range out {
		out[i] = flat[i*reps : (i+1)*reps]
	}
	return out, nil
}

// plane is grid over a figure's (series, x) plane, series-major — the
// order the sequential loop nests ran: out[s][x][rep].
func plane[T any](ns, nx, reps int, cell func(s, x, rep int) (T, error)) ([][][]T, error) {
	cells, err := grid(ns*nx, reps, func(i, rep int) (T, error) { return cell(i/nx, i%nx, rep) })
	if err != nil {
		return nil, err
	}
	out := make([][][]T, ns)
	for s := range out {
		out[s] = cells[s*nx : (s+1)*nx]
	}
	return out, nil
}

// curve summarizes one series: point j sits at xs[j] and summarizes val
// over cells[j]'s repetitions.
func curve[T any](name string, xs []float64, cells [][]T, val func(T) float64) Series {
	s := Series{Name: name, Points: make([]Point, len(xs))}
	for j, x := range xs {
		s.Points[j] = point(x, cells[j], val)
	}
	return s
}

// point is the data point at x: the mean and 90% confidence interval of val
// over one cell's repetitions, added in rep order.
func point[T any](x float64, reps []T, val func(T) float64) Point {
	var smp stats.Sample
	for _, v := range reps {
		smp.Add(val(v))
	}
	return Point{X: x, Mean: smp.Mean(), CI: smp.CI90(), N: smp.N()}
}

// self is curve's val for cells that measure a single float.
func self(v float64) float64 { return v }

// axis converts a sweep to figure x values, each multiplied by scale.
func axis[T int | float64](sweep []T, scale float64) []float64 {
	xs := make([]float64, len(sweep))
	for i, v := range sweep {
		xs[i] = float64(v) * scale
	}
	return xs
}
