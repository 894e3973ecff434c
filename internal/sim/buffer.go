package sim

// Buffer is a bounded FIFO queue connecting simulated processes, analogous
// to a Go channel but operating in virtual time. The query engine uses it
// for the one-page-ahead pipeline between a network producer and its
// consumer, and for request queues of server-side processes.
type Buffer struct {
	sim      *Simulator
	name     string
	capacity int
	items    []any
	closed   bool

	getters []Ref // blocked consumers, FIFO
	putters []Ref // blocked producers, FIFO
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
	for len(b.items) >= b.capacity {
		b.putters = append(b.putters, p.Ref())
		p.Block()
	}
	if b.closed {
		panic("sim: put on closed buffer " + b.name)
	}
	b.items = append(b.items, item)
	b.wakeGetter()
}

// Get removes the oldest item, blocking while the buffer is empty. The second
// result is false when the buffer is closed and drained.
func (b *Buffer) Get(p *Proc) (any, bool) {
	for len(b.items) == 0 && !b.closed {
		b.getters = append(b.getters, p.Ref())
		p.Block()
	}
	if len(b.items) == 0 {
		return nil, false
	}
	item := b.items[0]
	b.items = b.items[1:]
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
	for _, g := range b.getters {
		g.Unblock() // no-op for getters that unwound since queueing
	}
	b.getters = nil
}

// Len reports the number of buffered items.
func (b *Buffer) Len() int { return len(b.items) }

// wakeGetter wakes the longest-waiting live consumer, skipping queue entries
// whose process has unwound since queueing (stale Refs).
func (b *Buffer) wakeGetter() {
	for len(b.getters) > 0 {
		g := b.getters[0]
		b.getters = b.getters[1:]
		if g.Valid() {
			g.Unblock()
			return
		}
	}
}

func (b *Buffer) wakePutter() {
	for len(b.putters) > 0 {
		w := b.putters[0]
		b.putters = b.putters[1:]
		if w.Valid() {
			w.Unblock()
			return
		}
	}
}
