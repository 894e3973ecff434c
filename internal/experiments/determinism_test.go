package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// quickDrivers are the experiments whose quickCfg run is shared between the
// determinism test and the tests that read the same report.
var quickDrivers = map[string]func(Config) (*Report, error){
	"fig2":      Config.Fig2,
	"fig8":      Config.Fig8,
	"chaos":     Config.Chaos,
	"failover":  Config.Failover,
	"coherence": Config.Coherence,
}

// quickReports memoizes quickReport; tests in this package run one at a
// time, so it needs no lock.
var quickReports = map[string]*Report{}

// quickReport returns the named experiment's report at quickCfg, run once
// per test binary at GOMAXPROCS=8 and shared by every test that reads it.
func quickReport(t *testing.T, name string) *Report {
	t.Helper()
	if rep, ok := quickReports[name]; ok {
		return rep
	}
	prev := runtime.GOMAXPROCS(8)
	rep, err := quickDrivers[name](quickCfg())
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	quickReports[name] = rep
	return rep
}

// TestFiguresIdenticalAcrossGOMAXPROCS is the regression test for the grid
// runner: cells write into slots indexed by their grid coordinates and draw
// all randomness from seedFor — crash schedules, replica placement, write
// mixes and lease schedules included — so the full report, per-row detail
// and all, must be DeepEqual whether the grid runs on one worker or eight.
func TestFiguresIdenticalAcrossGOMAXPROCS(t *testing.T) {
	for _, name := range []string{"fig2", "fig8", "chaos", "failover", "coherence"} {
		t.Run(name, func(t *testing.T) {
			par := quickReport(t, name)
			prev := runtime.GOMAXPROCS(1)
			seq, err := quickDrivers[name](quickCfg())
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("%s report differs between GOMAXPROCS=1 and 8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					name, render(seq), render(par))
			}
		})
	}
}

// render prints a report as `csq run -v` would.
func render(r *Report) string {
	var b strings.Builder
	r.Write(&b, true)
	return b.String()
}

// get returns the value of the row's field named key, or nil if it has none.
func (r Row) get(key string) any {
	for _, f := range r.Fields {
		if f.Key == key {
			return f.Val
		}
	}
	return nil
}
