package experiments

import (
	"testing"
)

// TestChaosHybridNoWorseThanBest is the grid's acceptance property: at every
// tested MTBF the hybrid policy's mean response time is no worse than the
// better of pure data and query shipping (small tolerance for CI noise —
// runs are seed-paired across policies, so the comparison is tight).
func TestChaosHybridNoWorseThanBest(t *testing.T) {
	rep, err := Config{Reps: 3, Seed: 1, Quick: true}.Chaos()
	if err != nil {
		t.Fatal(err)
	}
	rt := rep.Figures[0]
	var ds, qs, hy *Series
	for i := range rt.Series {
		switch rt.Series[i].Name {
		case "DS":
			ds = &rt.Series[i]
		case "QS":
			qs = &rt.Series[i]
		case "HY":
			hy = &rt.Series[i]
		}
	}
	if ds == nil || qs == nil || hy == nil {
		t.Fatalf("missing series in %v", rt.Series)
	}
	for i, p := range hy.Points {
		best := ds.Points[i].Mean
		if qs.Points[i].Mean < best {
			best = qs.Points[i].Mean
		}
		if p.Mean > best*1.02 {
			t.Errorf("MTBF %g: HY mean %.2f worse than best pure policy %.2f", p.X, p.Mean, best)
		}
	}
}
