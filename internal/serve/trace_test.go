package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"strconv"
	"testing"

	"hybridship/internal/coherence"
	"hybridship/internal/faults"
	"hybridship/internal/plan"
	"hybridship/internal/sim"
	"hybridship/internal/workload"
)

// The serve trace pins: each run below records its Result and a SHA-256 of
// its dispatch trace (every kernel dispatch's virtual time and actor name,
// in order) in testdata/trace_golden.json. A change to how arrivals,
// workers or fault streams are scheduled that moves one event fails here
// even when the counters agree.
//
// Regenerate only for a deliberate change to simulated behaviour:
//
//	go test ./internal/serve -run TestServeTracePins -update
var updatePins = flag.Bool("update", false, "rewrite testdata/trace_golden.json from the current serving layer")

const tracePinPath = "testdata/trace_golden.json"

type tracePin struct {
	Result      json.RawMessage `json:"result"`
	TraceSHA256 string          `json:"trace_sha256"`
	TraceEvents int             `json:"trace_events"`
}

// rwPinConfig is shaped like the benchmark's serve-rw session: four client
// streams with a finite lease, the last stream writing every slot it gets,
// two DataShipping classes and a QueryShipping fallback.
func rwPinConfig(t *testing.T) Config {
	t.Helper()
	const clients = 4
	cfg := testConfig(t)
	cfg.Exec.Coherence = &coherence.Config{NumClients: clients, LeaseDuration: 2}
	cfg.Seed = 7
	cfg.NumQueries = 24
	cfg.ArrivalRate = 0.5
	cfg.Deadline = 0
	cfg.QueueCap = 8
	cfg.RetryBudget = 0
	cfg.DegradeHi, cfg.DegradeLo, cfg.StaticHi, cfg.StaticLo = 0, 0, 0, 0
	cfg.FreshPlans = []*plan.Node{
		annotate(leftDeepChain(2), plan.DataShipping),
		annotate(leftDeepChain(2), plan.DataShipping),
	}
	mix := workload.WriteMix(cfg.Exec.Catalog, 11, 1)
	cfg.Updates = func(qi int) (string, int, int, bool) {
		if qi%clients != clients-1 {
			return "", 0, 0, false
		}
		op, ok := mix(qi)
		return op.Rel, op.Page0, op.Pages, ok
	}
	return cfg
}

// tracePinConfigs lists the pinned runs.
func tracePinConfigs(t *testing.T) map[string]Config {
	disabled := testConfig(t)
	disabled.Disabled = true
	disabled.NumQueries = 16
	disabled.ArrivalRate = 2

	overload := testConfig(t)
	overload.NumQueries = 40
	overload.ArrivalRate = 20

	chaos := cohServeConfig(t, 0.3)
	chaos.NumQueries = 30
	chaos.ArrivalRate = 2
	chaos.Exec.Faults = &faults.Config{
		Seed: 5, MaxRetries: 50,
		SiteMTBF: 12, SiteMTTR: 1,
		ClientMTBF: 9, ClientMTTR: 2,
		Script: []faults.Event{
			{At: 3, Kind: faults.NetOutage, Duration: 0.5},
			{At: 3, Kind: faults.ClientCrash, Site: 0, Duration: 1},
		},
	}

	return map[string]Config{
		"rw":       rwPinConfig(t),
		"disabled": disabled,
		"overload": overload,
		"chaos":    chaos,
	}
}

// measurePin runs cfg untraced and traced; the two Results must agree.
func measurePin(t *testing.T, name string, cfg Config) tracePin {
	t.Helper()
	plain, err := json.Marshal(mustRun(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var n int
	var buf []byte
	cfg.Exec.Trace = func(at sim.Time, actor string) {
		buf = strconv.AppendFloat(buf[:0], float64(at), 'g', -1, 64)
		buf = append(buf, ' ')
		buf = append(buf, actor...)
		buf = append(buf, '\n')
		h.Write(buf)
		n++
	}
	traced, err := json.Marshal(mustRun(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, traced) {
		t.Fatalf("%s: traced Result differs from untraced:\n traced %s\nuntraced %s", name, traced, plain)
	}
	return tracePin{Result: plain, TraceSHA256: hex.EncodeToString(h.Sum(nil)), TraceEvents: n}
}

// TestServeTracePins compares every pinned run with its recorded Result and
// dispatch trace, or rewrites the file under -update.
func TestServeTracePins(t *testing.T) {
	cfgs := tracePinConfigs(t)
	if *updatePins {
		out := make(map[string]tracePin, len(cfgs))
		for name, cfg := range cfgs {
			out[name] = measurePin(t, name, cfg)
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tracePinPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(tracePinPath)
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]tracePin
	if err := json.Unmarshal(data, &pins); err != nil {
		t.Fatal(err)
	}
	if len(pins) != len(cfgs) {
		t.Errorf("%s holds %d pins for %d runs", tracePinPath, len(pins), len(cfgs))
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			want, ok := pins[name]
			if !ok {
				t.Fatalf("%s: missing from %s", name, tracePinPath)
			}
			got := measurePin(t, name, cfg)
			var wantRes bytes.Buffer
			if err := json.Compact(&wantRes, want.Result); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Result, wantRes.Bytes()) {
				t.Errorf("Result diverged:\n got %s\nwant %s", got.Result, wantRes.Bytes())
			}
			if got.TraceSHA256 != want.TraceSHA256 || got.TraceEvents != want.TraceEvents {
				t.Errorf("dispatch trace diverged: got %d events sha256 %s, want %d events sha256 %s",
					got.TraceEvents, got.TraceSHA256, want.TraceEvents, want.TraceSHA256)
			}
		})
	}
}
