package sim

// Buffer is a bounded FIFO queue connecting simulated processes, analogous
// to a Go channel but operating in virtual time. The query engine uses it
// for the one-page-ahead pipeline between a network producer and its
// consumer, and for request queues of server-side processes.
type Buffer struct {
	sim      *Simulator
	name     string
	capacity int
	items    fifo[any]
	closed   bool

	getters fifo[Ref] // blocked consumers
	putters fifo[Ref] // blocked producers
}

// NewBuffer creates a buffer holding at most capacity items.
// Capacity must be at least one.
func NewBuffer(s *Simulator, name string, capacity int) *Buffer {
	if capacity < 1 {
		panic("sim: buffer capacity must be >= 1")
	}
	return &Buffer{sim: s, name: name, capacity: capacity}
}

// Put appends an item, blocking while the buffer is full.
// Putting to a closed buffer panics.
func (b *Buffer) Put(p *Proc, item any) {
	for b.items.len() >= b.capacity {
		b.putters.push(p.Ref())
		p.Block()
	}
	b.PutNow(item)
}

// PutNow appends an item without waiting, for a caller that has no process
// to park and knows the buffer has room. Putting to a full or closed buffer
// panics.
func (b *Buffer) PutNow(item any) {
	if b.items.len() >= b.capacity {
		panic("sim: PutNow on full buffer " + b.name)
	}
	if b.closed {
		panic("sim: put on closed buffer " + b.name)
	}
	b.items.push(item)
	b.wakeGetter()
}

// Get removes the oldest item, blocking while the buffer is empty. The second
// result is false when the buffer is closed and drained.
func (b *Buffer) Get(p *Proc) (any, bool) {
	for b.items.len() == 0 && !b.closed {
		b.getters.push(p.Ref())
		p.Block()
	}
	if b.items.len() == 0 {
		return nil, false
	}
	item := b.items.pop()
	b.wakePutter()
	return item, true
}

// Close marks the buffer as producing no further items; blocked and future
// Gets drain the remaining items and then return ok == false.
func (b *Buffer) Close() {
	if b.closed {
		return
	}
	b.closed = true
	for b.getters.len() > 0 {
		b.getters.pop().Unblock() // no-op for getters that unwound since queueing
	}
}

// Len reports the number of buffered items.
func (b *Buffer) Len() int { return b.items.len() }

// wakeGetter wakes the longest-waiting live consumer, skipping queue entries
// whose process has unwound since queueing (stale Refs).
func (b *Buffer) wakeGetter() {
	for b.getters.len() > 0 {
		if g := b.getters.pop(); g.Valid() {
			g.Unblock()
			return
		}
	}
}

func (b *Buffer) wakePutter() {
	for b.putters.len() > 0 {
		if w := b.putters.pop(); w.Valid() {
			w.Unblock()
			return
		}
	}
}
