package netsim

import (
	"testing"

	"hybridship/internal/sim"
)

func TestTransferTime(t *testing.T) {
	s := sim.New()
	n := New(s, 100e6) // 100 Mbit/s
	// A 4096-byte page is 32768 bits: 327.68 microseconds on the wire.
	got := n.TransferTime(4096)
	want := 4096 * 8 / 100e6
	if got != want {
		t.Errorf("TransferTime(4096) = %g, want %g", got, want)
	}
}

func TestTransmitOccupiesLink(t *testing.T) {
	s := sim.New()
	n := New(s, 100e6)
	var done []float64
	for i := 0; i < 3; i++ {
		s.Spawn("sender", func(p *sim.Proc) {
			n.Transmit(p, 4096, true)
			done = append(done, s.Now())
		})
	}
	s.Run()
	// FIFO link: three page transfers serialize.
	per := 4096 * 8 / 100e6
	for i, d := range done {
		want := per * float64(i+1)
		if diff := d - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("transfer %d finished at %g, want %g", i, d, want)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	s := sim.New()
	n := New(s, 100e6)
	s.Spawn("sender", func(p *sim.Proc) {
		n.Transmit(p, 4096, true)
		n.Transmit(p, 128, false) // control message
		n.Transmit(p, 4096, true)
	})
	end := s.Run()
	st := n.Stats()
	if st.Messages != 3 {
		t.Errorf("messages = %d, want 3", st.Messages)
	}
	if st.DataPages != 2 {
		t.Errorf("data pages = %d, want 2", st.DataPages)
	}
	if want := int64(4096 + 128 + 4096); st.Bytes != want {
		t.Errorf("bytes = %d, want %d", st.Bytes, want)
	}
	if u := n.Utilization(end); u < 0.99 {
		t.Errorf("a busy sender should saturate the link; utilization = %.2f", u)
	}
}

func TestInvalidBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero bandwidth")
		}
	}()
	New(sim.New(), 0)
}

// mustPanic runs f and reports whether it panicked, returning the value.
func mustPanic(t *testing.T, what string, f func()) (v any) {
	t.Helper()
	defer func() {
		v = recover()
		if v == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
	return
}

// TestTransmitRejectsNonPositiveSizes pins the input-validation contract: a
// zero- or negative-byte message is a caller bug and must panic loudly, not
// silently occupy the link for zero time.
func TestTransmitRejectsNonPositiveSizes(t *testing.T) {
	s := sim.New()
	n := New(s, 100e6)
	s.Spawn("sender", func(p *sim.Proc) {
		mustPanic(t, "Transmit(0 bytes)", func() { n.Transmit(p, 0, false) })
		mustPanic(t, "Transmit(-1 bytes)", func() { n.Transmit(p, -1, true) })
	})
	end := s.Run()
	if end != 0 {
		t.Errorf("rejected transmits advanced the clock to %g", end)
	}
	if st := n.Stats(); st.Messages != 0 || st.Bytes != 0 {
		t.Errorf("rejected transmits counted traffic: %+v", st)
	}
}

// TestUtilizationZeroElapsed pins the division guard: at virtual time zero
// (and for nonsensical negative times) utilization reports 0, not NaN/Inf.
func TestUtilizationZeroElapsed(t *testing.T) {
	s := sim.New()
	n := New(s, 100e6)
	if u := n.Utilization(0); u != 0 {
		t.Errorf("Utilization(0) = %g, want 0", u)
	}
	if u := n.Utilization(-1); u != 0 {
		t.Errorf("Utilization(-1) = %g, want 0", u)
	}
}

// TestOutageBlocksNewTransfers checks the link's down state: a transmission
// arriving during an outage waits for restoration, and the wire time it is
// charged is unchanged (the outage delays, it does not stretch, transfers).
func TestOutageBlocksNewTransfers(t *testing.T) {
	s := sim.New()
	n := New(s, 100e6)
	per := n.TransferTime(4096)
	var done float64
	s.Spawn("ops", func(p *sim.Proc) {
		n.SetDown(true)
		if !n.Down() {
			t.Error("Down() = false after SetDown(true)")
		}
		p.Hold(2)
		n.SetDown(false)
	})
	s.Spawn("sender", func(p *sim.Proc) {
		p.Hold(1) // arrive mid-outage
		n.Transmit(p, 4096, true)
		done = s.Now()
	})
	s.Run()
	want := 2 + per
	if diff := done - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("transfer finished at %g, want %g (restore time + wire time)", done, want)
	}
}

// TestDegradeStretchesTransfers checks bandwidth degradation: factor k
// multiplies transfer time, factor 1 restores it, and factors below 1 are
// rejected.
func TestDegradeStretchesTransfers(t *testing.T) {
	s := sim.New()
	n := New(s, 100e6)
	per := n.TransferTime(4096)
	var first, second float64
	s.Spawn("sender", func(p *sim.Proc) {
		n.SetDegrade(4)
		n.Transmit(p, 4096, true)
		first = s.Now()
		n.SetDegrade(1)
		n.Transmit(p, 4096, true)
		second = s.Now()
		mustPanic(t, "SetDegrade(0.5)", func() { n.SetDegrade(0.5) })
	})
	s.Run()
	if diff := first - 4*per; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("degraded transfer took %g, want %g", first, 4*per)
	}
	if diff := (second - first) - per; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("restored transfer took %g, want %g", second-first, per)
	}
}
