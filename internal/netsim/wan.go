package netsim

import "fmt"

// WAN models the wide-area interconnect between site groups in a fleet run:
// a latency + bandwidth pipe rather than a shared FIFO link. Unlike Network,
// a WAN transfer never queues — wide-area pipes are provisioned, so messages
// overlap freely and each one costs latency + bytes/bandwidth. That makes the
// propagation latency a hard lower bound on cross-group message delay, which
// is exactly the lookahead a conservative shard coordinator (internal/shard)
// needs: no message sent at time t can be seen by another group before
// t + Latency().
//
// Traffic is accounted per sending party in fixed index order, so merged
// fleet-wide stats are independent of the order in which parties ran.
type WAN struct {
	latency   float64 // one-way propagation delay, seconds
	bandwidth float64 // bits per second
	perSrc    []Stats
}

// NewWAN creates a wide-area pipe with the given one-way latency (seconds),
// bandwidth (bits per second), and number of sending parties.
func NewWAN(latency, bitsPerSec float64, parties int) *WAN {
	if latency <= 0 {
		panic(fmt.Sprintf("netsim: WAN latency %g must be positive", latency))
	}
	if bitsPerSec <= 0 {
		panic("netsim: WAN bandwidth must be positive")
	}
	if parties < 1 {
		panic("netsim: WAN needs at least one party")
	}
	return &WAN{latency: latency, bandwidth: bitsPerSec, perSrc: make([]Stats, parties)}
}

// Latency returns the one-way propagation delay — the shard coordinator's
// lookahead bound.
func (w *WAN) Latency() float64 { return w.latency }

// Delay returns the end-to-end delivery delay for a message of the given
// size: propagation plus transfer.
func (w *WAN) Delay(bytes int) float64 {
	return w.latency + float64(bytes)*8/w.bandwidth
}

// Charge accounts one message of the given size to sending party src and
// returns its delivery delay. It touches only src's stats slot, so parties on
// different shards may charge concurrently during a window without ordering
// effects showing up in the merged totals.
func (w *WAN) Charge(src, bytes int, isDataPage bool) float64 {
	if bytes <= 0 {
		panic(fmt.Sprintf("netsim: WAN charge of non-positive message size %d bytes", bytes))
	}
	d := w.Delay(bytes)
	st := &w.perSrc[src]
	st.Messages++
	st.Bytes += int64(bytes)
	st.WireTime += d
	if isDataPage {
		st.DataPages++
	}
	return d
}

// Stats returns the fleet-wide traffic counters, merged over parties in
// index order.
func (w *WAN) Stats() Stats {
	var total Stats
	for i := range w.perSrc {
		total.Messages += w.perSrc[i].Messages
		total.DataPages += w.perSrc[i].DataPages
		total.Bytes += w.perSrc[i].Bytes
		total.WireTime += w.perSrc[i].WireTime
	}
	return total
}
