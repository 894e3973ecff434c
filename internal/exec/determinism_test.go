package exec

import (
	"reflect"
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/plan"
	"hybridship/internal/sim"
	"hybridship/internal/workload"
)

// TestRunFullyDeterministic runs the same configuration repeatedly and
// requires the complete Result — including per-site disk stats and network
// stats — to be identical down to the last counter. This is the regression
// net under the kernel fast path and the pooled process machinery: any
// schedule perturbation shows up as a diverged counter.
func TestRunFullyDeterministic(t *testing.T) {
	cases := []struct {
		name string
		run  func() Result
	}{
		{"qs-minalloc-loaded", func() Result {
			cfg := chainConfig(t, 6, 2, workload.Moderate, false)
			cfg.ServerLoad = map[catalog.SiteID]float64{0: 40, 1: 60}
			res, err := Run(cfg, annotate(leftDeepChain(6), plan.QueryShipping))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"ds-maxalloc", func() Result {
			cfg := chainConfig(t, 4, 2, workload.Moderate, true)
			res, err := Run(cfg, annotate(leftDeepChain(4), plan.DataShipping))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.run()
			for i := 0; i < 3; i++ {
				if got := tc.run(); !reflect.DeepEqual(got, ref) {
					t.Fatalf("run %d diverged:\n got %+v\nwant %+v", i+1, got, ref)
				}
			}
		})
	}
}

// TestLoadedTraceDeterministic hashes the dispatch traces of 64 runs with
// two loaded servers and requires one hash: the load clocks must start in
// an order that does not depend on map iteration.
func TestLoadedTraceDeterministic(t *testing.T) {
	cfg := chainConfig(t, 2, 2, workload.Moderate, false)
	cfg.ServerLoad = map[catalog.SiteID]float64{0: 40, 1: 60}
	root := annotate(leftDeepChain(2), plan.QueryShipping)
	hashes := make(map[string]int)
	for i := 0; i < 64; i++ {
		th := newTraceHash()
		runGolden(t, cfg, root, th.record)
		hashes[th.sum()]++
	}
	if len(hashes) != 1 {
		t.Fatalf("64 traced runs gave %d distinct traces: %v", len(hashes), hashes)
	}
}

// TestFastPathMatchesReferenceKernel compares a query executed on the Hold
// fast path against the same query forced through the reference
// park/dispatch slow path (a no-op Trace disables the fast path). The
// virtual-time outcome must be bit-identical: the fast path is an
// implementation shortcut, not a semantic change.
func TestFastPathMatchesReferenceKernel(t *testing.T) {
	run := func(forceSlow bool) Result {
		cfg := chainConfig(t, 6, 2, workload.Moderate, false)
		cfg.ServerLoad = map[catalog.SiteID]float64{0: 40}
		if forceSlow {
			cfg.Trace = func(sim.Time, string) {}
		}
		res, err := Run(cfg, annotate(leftDeepChain(6), plan.QueryShipping))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast, slow := run(false), run(true)
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("fast path diverged from reference kernel:\nfast %+v\nslow %+v", fast, slow)
	}
}
