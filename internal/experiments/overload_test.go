package experiments

import (
	"reflect"
	"runtime"
	"testing"
)

// overloadTestConfig is the quick grid the acceptance assertions run on.
func overloadTestConfig() Config {
	return Config{Seed: 1996, Quick: true, Reps: 2}
}

// meanAt returns the mean of the series named name at x in fig, failing the
// test if the point does not exist.
func meanAt(t *testing.T, fig *Figure, name string, x float64) float64 {
	t.Helper()
	for _, s := range fig.Series {
		if s.Name != name {
			continue
		}
		for _, p := range s.Points {
			if p.X == x {
				return p.Mean
			}
		}
	}
	t.Fatalf("figure %q has no point %q at x=%g", fig.ID, name, x)
	return 0
}

// TestOverloadAcceptance runs the quick grid once and checks the headline
// claims of the serving layer on the fault-free goodput figure:
//
//   - enabled, goodput at 2x offered load stays within 10% of the
//     saturation (1x) goodput — admission control sheds the excess instead
//     of letting it poison admitted work;
//   - disabled, goodput at 2x collapses to less than 60% of the enabled
//     saturation goodput — the open loop drowns;
//   - granted retries never exceed the configured fraction of started
//     queries in any enabled cell, and are impossible in disabled cells;
//   - sustained queue pressure produces degraded admissions and recorded
//     level transitions.
func TestOverloadAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("overload grid is a multi-second simulation sweep")
	}
	rep, err := overloadTestConfig().Overload()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Figures) == 0 || rep.Figures[0].ID != "overload-goodput" {
		t.Fatalf("first figure is not the fault-free goodput figure: %+v", rep.Figures)
	}
	gp := rep.Figures[0]
	for _, pol := range []string{"DS", "QS", "HY"} {
		sat := meanAt(t, gp, pol+" on", 1)
		over := meanAt(t, gp, pol+" on", 2)
		if sat <= 0 {
			t.Fatalf("%s: saturation goodput is %g, want > 0", pol, sat)
		}
		if over < 0.9*sat {
			t.Errorf("%s enabled: goodput at 2x = %.3f dropped more than 10%% below saturation %.3f",
				pol, over, sat)
		}
		if off := meanAt(t, gp, pol+" off", 2); off > 0.6*sat {
			t.Errorf("%s disabled: goodput at 2x = %.3f did not collapse below 60%% of saturation %.3f",
				pol, off, sat)
		}
	}

	var transitions, degraded int
	for _, row := range rep.Tables[0].Rows {
		count := func(key string) int64 { return row.get(key).(int64) }
		granted, started := count("retry"), count("comp")+count("exp")+count("fail")
		if row.get("mode") == "off" {
			if granted != 0 {
				t.Errorf("disabled cell %+v granted budgeted retries", row.Fields)
			}
			if count("rej") != 0 || started != count("off") {
				t.Errorf("disabled cell sheds arrivals: %+v", row.Fields)
			}
			continue
		}
		if float64(granted) > overloadBudget*float64(started) {
			t.Errorf("cell %s/%s load=%g mtbf=%g: %d retries granted exceeds %.0f%% of %d started",
				row.get("policy"), row.get("mode"), row.get("load"), row.get("mtbf"), granted, 100*overloadBudget, started)
		}
		transitions += len(row.Detail)
		degraded += int(count("degr"))
	}
	if transitions == 0 {
		t.Error("no enabled cell recorded a degradation transition")
	}
	if degraded == 0 {
		t.Error("no enabled cell served degraded admissions")
	}
}

// TestOverloadCellIdenticalAcrossGOMAXPROCS pins a single serving cell —
// admission, deadlines, breakers, budget and all — to be DeepEqual across
// parallelism settings, the same discipline every other grid obeys.
func TestOverloadCellIdenticalAcrossGOMAXPROCS(t *testing.T) {
	c := overloadTestConfig()
	policies, err := c.overloadCompile()
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	one, err := c.overloadCell(policies[2], false, 2, 16, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	eight, err := c.overloadCell(policies[2], false, 2, 16, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Errorf("serving cell diverges across GOMAXPROCS:\n got %+v\nwant %+v", eight, one)
	}
}
