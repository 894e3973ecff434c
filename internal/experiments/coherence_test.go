package experiments

import (
	"testing"
)

// TestCoherenceGridSelfChecks runs the quick coherence grid (the driver
// itself asserts the staleness oracle) and checks the report's structure and
// the invariants the cells must satisfy.
func TestCoherenceGridSelfChecks(t *testing.T) {
	rep := quickReport(t, "coherence")
	// Quick axes: 2 clients x (lease 0: wf 0 only; lease 0.5: wf {0, .25}),
	// at 2 MTBF levels = 12 cells.
	rows := rep.Tables[0].Rows
	if len(rows) != 12 {
		t.Fatalf("cells table has %d rows, want 12", len(rows))
	}
	if len(rep.Figures) != 2 {
		t.Fatalf("Figures = %d, want one per MTBF level", len(rep.Figures))
	}
	var updates, invals, renewals, misses int64
	for _, row := range rows {
		upd := row.get("upd").(outOf)[1]
		renew := row.get("renew").(int64)
		if row.get("stale").(int64) != 0 {
			t.Errorf("cell %+v: oracle reports stale reads", row.Fields)
		}
		if row.get("wf").(float64) == 0 && upd != 0 {
			t.Errorf("read-only cell dispatched updates: %+v", row.Fields)
		}
		if row.get("lease").(float64) == 0 && renew != 0 {
			t.Errorf("infinite-lease cell renewed leases: %+v", row.Fields)
		}
		if c := row.get("c").(int); len(row.Detail) != c {
			t.Errorf("cell c=%d has %d stream entries", c, len(row.Detail))
		}
		updates += upd
		invals += row.get("inv").(int64)
		renewals += renew
		misses += row.get("miss").(int64)
	}
	if updates == 0 || invals == 0 || renewals == 0 || misses == 0 {
		t.Errorf("grid never exercised the protocol: updates=%d invalidations=%d renewals=%d misses=%d",
			updates, invals, renewals, misses)
	}
}
