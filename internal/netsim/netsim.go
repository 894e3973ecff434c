// Package netsim models the interconnect of the paper's simulator: a single
// shared FIFO link with a configured bandwidth (§3.2.2). The details of a
// particular technology (Ethernet, ATM, ...) are deliberately not modeled.
// CPU costs for sending and receiving messages are charged by the execution
// engine at the endpoint CPUs; this package accounts only for time on the
// wire and for traffic statistics.
package netsim

import (
	"fmt"

	"hybridship/internal/sim"
)

// Stats aggregates network traffic counters.
type Stats struct {
	Messages  int64 // total messages (control and data)
	DataPages int64 // messages that carried one data page
	Bytes     int64 // total bytes on the wire
	WireTime  float64
}

// Network is the shared client-server interconnect.
type Network struct {
	link      *sim.Resource
	bandwidth float64 // bits per second
	stats     Stats

	// Fault state, driven by internal/faults through the engine's hooks.
	// degrade multiplies transfer times (1 = healthy); down blocks new
	// transmissions until the link comes back up. A transfer already on the
	// wire when an outage starts completes — the model cuts admission, not
	// in-flight signal propagation.
	degrade float64
	down    bool
	waiters []sim.Ref // processes blocked on a down link
}

// New creates a network with the given bandwidth in bits per second.
func New(s *sim.Simulator, bitsPerSec float64) *Network {
	if bitsPerSec <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	return &Network{link: sim.NewResource(s, "net"), bandwidth: bitsPerSec, degrade: 1}
}

// TransferTime returns the time on the wire for a message of the given size.
func (n *Network) TransferTime(bytes int) float64 {
	return float64(bytes) * 8 / n.bandwidth
}

// Transmit occupies the link for the duration of a message of the given size.
// isDataPage marks transfers of full data pages, which are the unit of the
// paper's "pages sent" communication metric. A message must have a positive
// size: zero or negative bytes indicate a caller bug (a zero-byte "message"
// would silently occupy the link for no time and skew the traffic counters),
// so Transmit panics rather than guessing.
func (n *Network) Transmit(p *sim.Proc, bytes int, isDataPage bool) {
	if bytes <= 0 {
		panic(fmt.Sprintf("netsim: Transmit of non-positive message size %d bytes", bytes))
	}
	if n.down {
		n.awaitUp(p)
	}
	t := n.TransferTime(bytes) * n.degrade
	n.stats.Messages++
	n.stats.Bytes += int64(bytes)
	n.stats.WireTime += t
	if isDataPage {
		n.stats.DataPages++
	}
	n.link.Use(p, t)
}

// awaitUp blocks the caller until the link leaves the down state. Callers
// queue as Refs so an interrupted (unwound) waiter is skipped at wake time.
func (n *Network) awaitUp(p *sim.Proc) {
	for n.down {
		n.waiters = append(n.waiters, p.Ref())
		p.Block()
	}
}

// SetDown switches the link's outage state. Bringing the link up wakes every
// blocked sender; they reacquire the link in their original FIFO order.
func (n *Network) SetDown(down bool) {
	n.down = down
	if !down {
		for _, w := range n.waiters {
			w.Unblock()
		}
		n.waiters = n.waiters[:0]
	}
}

// Down reports whether the link is currently in an outage.
func (n *Network) Down() bool { return n.down }

// SetDegrade sets the transfer-time multiplier modelling degraded bandwidth
// (factor 2 = half bandwidth). Factor 1 restores full speed; factors below 1
// are rejected, as faults must not make the link faster than configured.
func (n *Network) SetDegrade(factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("netsim: degrade factor %g < 1", factor))
	}
	n.degrade = factor
}

// Stats returns a copy of the traffic counters.
func (n *Network) Stats() Stats { return n.stats }

// Utilization returns wire time divided by elapsed virtual time.
func (n *Network) Utilization(now float64) float64 {
	if now > 0 {
		return n.stats.WireTime / now
	}
	return 0
}
