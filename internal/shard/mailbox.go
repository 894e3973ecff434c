package shard

import "hybridship/internal/sim"

// Mailbox is a typed cross-shard channel: any process on any shard may Send
// into it, and processes on the mailbox's home shard Recv from it in
// deterministic merged order (arrival time, then source shard, then source
// sequence — the order Post commits deliveries in). It is the fleet-level
// counterpart of sim.Buffer: Buffer connects processes inside one kernel,
// Mailbox connects processes across kernels.
type Mailbox struct {
	c       *Coordinator
	home    int
	items   []any
	getters []sim.Ref // blocked receivers, FIFO; stale refs skipped at wake
}

// NewMailbox creates a mailbox owned by shard home. Its state is only ever
// touched from that shard's kernel goroutine (deliveries are Post callbacks;
// receivers must live on the home shard), so it needs no locking.
func (c *Coordinator) NewMailbox(home int) *Mailbox {
	if home < 0 || home >= len(c.sims) {
		panic("shard: mailbox home out of range")
	}
	return &Mailbox{c: c, home: home}
}

// Send delivers item to the mailbox delay simulated seconds after p's
// current time. Cross-shard sends must respect the coordinator's lookahead;
// callers derive the delay from the WAN link (netsim.WAN.Delay), which
// guarantees that by construction.
func (m *Mailbox) Send(p *sim.Proc, delay float64, item any) {
	m.c.Post(p, m.home, delay, func() { m.push(item) })
}

func (m *Mailbox) push(item any) {
	m.items = append(m.items, item)
	for len(m.getters) > 0 {
		g := m.getters[0]
		m.getters = m.getters[1:]
		if g.Valid() {
			g.Unblock()
			return
		}
	}
}

// Recv removes and returns the oldest delivered item, blocking while the
// mailbox is empty. The caller must run on the mailbox's home shard.
func (m *Mailbox) Recv(p *sim.Proc) any {
	if m.c.ShardOf(p.Sim()) != m.home {
		panic("shard: Recv from a process outside the mailbox's home shard")
	}
	for len(m.items) == 0 {
		m.getters = append(m.getters, p.Ref())
		p.Block()
	}
	item := m.items[0]
	m.items[0] = nil
	m.items = m.items[1:]
	return item
}

// Len reports the number of delivered, unreceived items.
func (m *Mailbox) Len() int { return len(m.items) }

// InterruptAfter cancels the process behind ref — which must live on shard
// dst — delay seconds after p's current time, using the same posted-delivery
// path as mailbox sends: the ref is only dereferenced on dst's own kernel
// goroutine, inside a window, so cross-shard cancellation is race-free and
// lands at a deterministic point in dst's schedule.
func (c *Coordinator) InterruptAfter(p *sim.Proc, dst int, delay float64, ref sim.Ref, reason string) {
	c.Post(p, dst, delay, func() { ref.Interrupt(reason) })
}
