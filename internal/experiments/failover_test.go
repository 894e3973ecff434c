package experiments

import (
	"strings"
	"testing"
)

// TestFailoverReplicationDominates re-checks the grid's headline property
// from the rendered figure (the driver also asserts it internally, and
// reflect.DeepEquals every RF=1 cell against the literal unreplicated chaos
// configuration): at every (policy, MTBF) the RF=2 and RF=3 mean
// availability is at least the RF=1 mean. Seed-paired runs make the
// comparison exact, so no tolerance is applied.
func TestFailoverReplicationDominates(t *testing.T) {
	rep, err := Config{Reps: 3, Seed: 1, Quick: true}.Failover()
	if err != nil {
		t.Fatal(err)
	}
	av := rep.Figures[0]
	series := map[string]*Series{}
	for i := range av.Series {
		series[av.Series[i].Name] = &av.Series[i]
	}
	if len(series) != 9 {
		t.Fatalf("want 9 series (3 policies x RF 1-3), got %d: %v", len(series), av.Series)
	}
	for name, s := range series {
		if strings.HasSuffix(name, "rf=1") {
			continue
		}
		base := series[name[:len(name)-1]+"1"]
		if base == nil {
			t.Fatalf("series %q has no rf=1 baseline", name)
		}
		for i, p := range s.Points {
			if p.Mean < base.Points[i].Mean {
				t.Errorf("%s: MTBF %g: availability %.4f%% below rf=1 baseline %.4f%%",
					name, p.X, p.Mean, base.Points[i].Mean)
			}
		}
	}
	// Replication must actually move the needle somewhere, not just tie: at
	// the shortest MTBF the best replicated cell strictly beats its baseline.
	improved := false
	for name, s := range series {
		if strings.HasSuffix(name, "rf=1") {
			continue
		}
		if s.Points[0].Mean > series[name[:len(name)-1]+"1"].Points[0].Mean {
			improved = true
		}
	}
	if !improved {
		t.Error("no replicated series improves availability at the shortest MTBF")
	}
}

// TestFailoverCellsSurfaceCounters: the per-cell table must cover the whole
// grid and actually surface the failure-handling counters — some replicated
// cell re-binds to a replica, and some cell skips a backoff because another
// copy was up. RF=1 cells can never fail over or skip.
func TestFailoverCellsSurfaceCounters(t *testing.T) {
	rows := quickReport(t, "failover").Tables[0].Rows
	if want := 3 * len(failoverRFs) * len(quickCfg().chaosSweep()); len(rows) != want {
		t.Fatalf("cells table has %d rows, want %d", len(rows), want)
	}
	var failovers, skips int64
	for _, row := range rows {
		fo, sk := row.get("failover").(int64), row.get("skip").(int64)
		if row.get("rf").(int) == 1 && (fo != 0 || sk != 0) {
			t.Errorf("unreplicated cell reports failovers: %+v", row.Fields)
		}
		failovers += fo
		skips += sk
	}
	if failovers == 0 {
		t.Error("no cell recorded a replica failover under the crash sweep")
	}
	if skips == 0 {
		t.Error("no cell recorded a backoff skip under the crash sweep")
	}
}
