package exec

// Cache-coherence execution paths (DESIGN.md §15). The protocol state machine
// lives in internal/coherence; this file charges the CPU, disk, and network
// costs of every protocol step at the right virtual times and drives the
// state machine in between. Every client-cache read goes through it. With
// Config.Coherence unset the engine has one client with infinite leases and
// no updates: no renewals, no invalidations, so a cached read costs exactly
// the paper's static cache read.

import (
	"fmt"

	"hybridship/internal/coherence"
	"hybridship/internal/machine"
	"hybridship/internal/sim"
)

// fillCoherent serves cached-prefix page pg through client s.client's
// private cache: renew the lease if it is no longer fresh, then either read
// the valid page from the client disk (DiskInst CPU plus one read) or
// refetch an invalidated page from the home server through the ordinary
// page-fault path.
func (s *scanOp) fillCoherent(p *sim.Proc, pg int) {
	st := s.e.coh
	params := s.e.cfg.Params
	if !st.LeaseFresh(s.client, int(s.src.id), s.e.sim.Now()) {
		s.renewLease(p)
	}
	if !st.ClientValid(s.client, s.cohRI, pg) {
		st.NoteCacheMiss(s.client)
		s.fault(p, pg)
		return
	}
	// Stale reads count as committed only if the attempt commits.
	if st.RecordCachedRead(s.client, s.cohRI, pg) {
		s.att.cohStale++
	}
	s.atSite.chargeCPU(p, params, params.DiskInst)
	s.atSite.read(p, s.ext.plus(pg))
}

// renewLease performs one lease-renewal round trip with the relation's home
// server: the page-fault path's supervised roundTrip, with a control message
// each way and no page read. Completing the round trip is a contact: it
// applies every pending invalidation before the lease is renewed, so a
// renewal can never carry a stale cache past a writer's wait bound.
func (s *scanOp) renewLease(p *sim.Proc) {
	sendT := s.e.sim.Now()
	s.roundTrip(p, diskAddr{}, true)
	s.e.coh.NoteRenewal(s.client)
	s.e.coh.SyncContact(s.client, int(s.src.id), sendT)
}

// crashClient is the injector's client-crash hook: mark the workstation down
// in the protocol state and abort every in-flight attempt reading through
// it. The abort has no attributable server site (failSite stays -1), so the
// serving layer's breakers never learn from it — a dead client says nothing
// about server health.
func (e *engine) crashClient(c int) {
	e.coh.CrashClient(c)
	for _, att := range e.attempts {
		if att.client == c {
			att.abortFrom(reasonClientCrash, -1, RolePrimary)
		}
	}
}

// UpdateResult reports one update's execution through the write protocol.
type UpdateResult struct {
	ResponseTime  float64 // submission to commit acknowledgement
	PagesDirtied  int
	Invalidations int     // callbacks shipped to fresh leaseholders before commit
	WaitTime      float64 // virtual time parked waiting for acks or the lease bound
	BoundExpired  bool    // committed at the lease bound with acks still missing
	Committed     bool
}

// runUpdate executes one update by client against pages [pg0, pg0+n) of rel
// at its home copy: submit, wait out any post-restart write grace and the
// relation's FIFO write slot, dirty the pages on the server disk, ship
// callback invalidations to every fresh leaseholder of the dirtied pages,
// and commit once all have acknowledged or the wait bound — the maximum
// pending lease expiry, snapshotted at BeginWrite — passes. A home-server
// crash anywhere in the protocol aborts the update; the versions never
// advance on an abort.
func (e *engine) runUpdate(p *sim.Proc, client int, rel string, pg0, n int) (UpdateResult, error) {
	st := e.coh
	var res UpdateResult
	if e.cfg.Coherence == nil {
		return res, fmt.Errorf("exec: ExecuteUpdate requires Config.Coherence")
	}
	if st.LeaseDuration() <= 0 {
		// An infinite lease can never be waited out: a single crashed
		// leaseholder would stall this writer forever.
		return res, fmt.Errorf("exec: updates require a finite lease duration")
	}
	id := e.cfg.Catalog.ID(rel)
	if id == 0 {
		return res, fmt.Errorf("exec: update on unknown relation %q", rel)
	}
	ri := int(id) - 1
	if n < 1 || pg0 < 0 || pg0+n > st.RelPages(ri) {
		return res, fmt.Errorf("exec: update pages [%d,%d) out of range for %s (%d pages)",
			pg0, pg0+n, rel, st.RelPages(ri))
	}
	start := e.sim.Now()
	params := e.cfg.Params
	home := st.Home(ri)
	srv := e.servers[home]

	fail := func(reason string) (UpdateResult, error) {
		st.NoteUpdateFailed(client)
		res.ResponseTime = e.sim.Now() - start
		return res, fmt.Errorf("exec: update on %s: %s", rel, reason)
	}
	if !st.ClientUp(client) {
		st.NoteUpdateFailed(client)
		res.ResponseTime = e.sim.Now() - start
		return res, fmt.Errorf("exec: update on %s: %w", rel, ErrClientDown)
	}
	if !srv.up {
		return fail(reasonSiteDown)
	}

	// Submission: one control message to the home server. The completed
	// receive is a client contact (sync + renew, stamped at send time).
	e.client.chargeCPU(p, params, params.MsgInstr(machine.CtrlMsgBytes))
	e.net.Transmit(p, machine.CtrlMsgBytes, false)
	if !srv.up {
		return fail("home server crashed during submission") // request lost in flight
	}
	srv.chargeCPU(p, params, params.MsgInstr(machine.CtrlMsgBytes))
	st.SyncContact(client, home, start)

	// Hold through any post-restart write grace, then take the relation's
	// FIFO write slot. Both can recur (another crash, another writer), so
	// loop until a pass observes no grace and a free slot.
	for {
		for {
			dt := st.WriteGraceRemaining(home, e.sim.Now())
			if dt <= 0 {
				break
			}
			p.Hold(dt)
		}
		if !srv.up {
			return fail("home server crashed before the write began")
		}
		if !st.ClientUp(client) {
			st.AbandonWriteSlot(ri) // we may hold a wake-up another waiter needs
			st.NoteUpdateFailed(client)
			res.ResponseTime = e.sim.Now() - start
			return res, fmt.Errorf("exec: update on %s: %w", rel, ErrClientDown)
		}
		if !st.WriteBusy(ri) {
			break
		}
		st.AwaitWriteSlot(ri, func() { p.Unblock() })
		p.Block()
	}
	st.AcquireWriteSlot(ri)

	// Dirty the pages on the home server's disk.
	srv.chargeCPU(p, params, params.DiskInst*float64(n))
	srv.writeRun(p, srv.extents[ri].plus(pg0), n)

	w := st.BeginWrite(ri, pg0, n, client, e.sim.Now())
	res.PagesDirtied = n
	res.Invalidations = len(w.Pending)
	if !srv.up || st.WriteGraceRemaining(home, e.sim.Now()) > 0 {
		// The server crashed (or crashed and already restarted, reopening
		// the grace window) while the disk write was in flight: the write
		// is lost with the server's tables.
		st.AbortWrite(w)
		res.ResponseTime = e.sim.Now() - start
		return res, fmt.Errorf("exec: update on %s: %s", rel, reasonSiteCrash)
	}

	// Ship one callback invalidation per pending leaseholder, concurrently
	// with the writer's wait.
	for _, c := range w.Pending {
		e.spawnInvalidation(w, c, home)
	}

	// Wait until every callback is acknowledged or the wait bound passes.
	// The bound was snapshotted at BeginWrite and is never extended: any
	// client still pending at the bound has, by the sync-on-contact
	// invariant, not contacted the server since — so its own lease view
	// expires at the same instant and it stops serving the stale pages.
	waitStart := e.sim.Now()
	armed := false
	for !w.Done() && !w.Aborted() {
		if e.sim.Now() >= w.Deadline {
			res.BoundExpired = true
			break
		}
		if !armed {
			armed = true
			e.sim.At(w.Deadline, w.Wake)
		}
		w.Park(p)
	}
	res.WaitTime = e.sim.Now() - waitStart
	st.NoteWriterWait(res.WaitTime, res.BoundExpired && !w.Aborted())
	if w.Aborted() {
		st.AbortWrite(w)
		res.ResponseTime = e.sim.Now() - start
		return res, fmt.Errorf("exec: update on %s: %s", rel, reasonSiteCrash)
	}
	st.CommitWrite(w)
	res.Committed = true

	// Commit acknowledgement back to the writer: a contact that syncs and
	// renews its lease. (Its cached copies of the dirtied pages were
	// already dropped at BeginWrite.)
	srv.chargeCPU(p, params, params.MsgInstr(machine.CtrlMsgBytes))
	e.net.Transmit(p, machine.CtrlMsgBytes, false)
	if st.ClientUp(client) {
		e.client.chargeCPU(p, params, params.MsgInstr(machine.CtrlMsgBytes))
		st.SyncContact(client, home, e.sim.Now())
	}
	res.ResponseTime = e.sim.Now() - start
	return res, nil
}

// spawnInvalidation ships one callback invalidation for write w from its
// home server to client c, as its own process so all callbacks overlap with
// each other and with the writer's wait: server send, network transit,
// client receive and cache discard, then the acknowledgement message back.
// A crashed target loses the callback (the writer waits out the lease bound
// instead); the protocol state advances at delivery, so the writer may
// resume as soon as the client provably knows, while the ack message's
// traffic is still charged behind it.
func (e *engine) spawnInvalidation(w *coherence.Write, c, home int) {
	st := e.coh
	srv := e.servers[home]
	params := e.cfg.Params
	e.sim.SpawnDaemonLazy(func() string { return fmt.Sprintf("inval:s%d>c%d", home, c) }, func(q *sim.Proc) {
		if !srv.up {
			return // crashed before the callback left; the write is aborted anyway
		}
		srv.chargeCPU(q, params, params.MsgInstr(machine.CtrlMsgBytes))
		e.net.Transmit(q, machine.CtrlMsgBytes, false)
		st.NoteCallbackTraffic(c, 1, machine.CtrlMsgBytes)
		if !st.ClientUp(c) {
			st.NoteInvalidationLost()
			return
		}
		e.client.chargeCPU(q, params, params.MsgInstr(machine.CtrlMsgBytes))
		st.DeliverInvalidation(c, home)
		// Acknowledgement: client back to server.
		e.client.chargeCPU(q, params, params.MsgInstr(machine.CtrlMsgBytes))
		e.net.Transmit(q, machine.CtrlMsgBytes, false)
		st.NoteCallbackTraffic(c, 1, machine.CtrlMsgBytes)
		if !srv.up {
			return // ack lost; delivery already released the writer's wait
		}
		srv.chargeCPU(q, params, params.MsgInstr(machine.CtrlMsgBytes))
		st.AckInvalidation(w, c)
	})
}
