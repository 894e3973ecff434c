package sim

// Process cancellation. The fault-injection subsystem needs a way to tear
// down in-flight simulated work when a site crashes: the crash, fired by a
// fault clock, interrupts the victim process, which unwinds (releasing
// resources and invalidating its queue positions) by panicking with the
// Interrupted sentinel at its next park point.
//
// Design notes:
//
//   - Interrupts are delivered only at park points (Hold slow path, Block,
//     buffer/resource waits). A process on the in-place Hold fast path is
//     never preempted mid-hold — but scheduling the interrupt wakeup at the
//     current time makes the fast-path condition (no pending event at or
//     before the hold target) false, so the victim takes the slow path and
//     the interrupt is delivered at the next hold. Delivery is therefore
//     deterministic: it depends only on the event schedule, not on whether
//     the fast path was available.
//
//   - Delivery bumps the process generation. That single counter increment
//     atomically invalidates every pending event of the process and every
//     Ref to it sitting in resource/buffer/disk wait queues, so the kernel
//     and the wait queues need no other bookkeeping to forget an unwound
//     waiter.

// Interrupted is the panic value delivered to a process cancelled with
// Interrupt. Operator code that needs to clean up (or convert the unwind
// into an abort of a larger unit of work) recovers it explicitly; a process
// that lets it escape is simply torn down — the kernel absorbs the sentinel
// rather than treating it as a failure.
type Interrupted struct {
	// Reason identifies the cause (e.g. "site crashed"). It is carried for
	// messages and tests; the kernel does not interpret it.
	Reason string
}

// Error makes an escaped Interrupted readable when a caller formats it.
func (i Interrupted) Error() string {
	//hslint:allow simhot -- formatted only when a caught interrupt is reported; cold path
	return "sim: process interrupted: " + i.Reason
}

// Ref is a generation-stamped reference to a process, the handle wait queues
// hold instead of a bare *Proc once cancellation is in play. A Ref taken
// before the process unwinds (or finishes, or is pool-reused) stops being
// Valid, so a wake loop can simply skip it.
type Ref struct {
	p   *Proc
	gen uint32
}

// Ref captures a generation-stamped reference to the process.
func (p *Proc) Ref() Ref { return Ref{p: p, gen: p.gen} }

// Valid reports whether the referenced process is still the one the Ref was
// taken on and has neither finished nor unwound.
func (r Ref) Valid() bool { return r.p != nil && !r.p.done && r.p.gen == r.gen }

// Unblock schedules the referenced process to resume at the current virtual
// time, if the reference is still valid; otherwise it is a no-op.
func (r Ref) Unblock() {
	if r.Valid() {
		r.p.sim.schedule(r.p, r.p.sim.now)
	}
}

// Interrupt cancels the referenced process, if the reference is still valid;
// otherwise it is a no-op.
func (r Ref) Interrupt(reason string) {
	if r.Valid() {
		r.p.Interrupt(reason)
	}
}

// Interrupt cancels the process: at its next park point it panics with
// Interrupted{reason} instead of resuming, invalidating its pending events
// and queue positions. Interrupting a finished process, or one that already
// has an undelivered interrupt, is a no-op.
//
// Unlike the other Proc methods, Interrupt is called from outside the
// victim: by the running process, or by a task or callback on the kernel
// goroutine (typically a fault clock firing a crash); the victim is parked.
// Interrupting the running process itself also works: the pending wakeup
// forces its next Hold onto the slow path, where the interrupt is
// delivered.
func (p *Proc) Interrupt(reason string) {
	if p.done || p.intr {
		return
	}
	p.intr = true
	p.intrReason = reason
	p.sim.schedule(p, p.sim.now)
}

// ClearInterrupt discards an undelivered interrupt aimed at the process. A
// supervisor that recovers from an attempt calls this before reusing the
// process for the next attempt, so an interrupt that raced with the
// attempt's completion cannot fire spuriously later. Must be called from the
// process's own goroutine. No-op if no interrupt is pending.
func (p *Proc) ClearInterrupt() {
	if p.intr {
		p.intr, p.intrReason = false, ""
		p.gen++ // invalidate the pending interrupt wakeup (and any queue refs)
	}
}
