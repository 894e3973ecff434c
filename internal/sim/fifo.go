package sim

// fifo is a FIFO queue on a circular buffer whose length is a power of two.
// It grows by doubling when full and never shrinks, so once a queue has
// reached its high-water mark, push and pop allocate nothing. Reslicing a
// slice from the front would instead strand its backing array, making
// every later append past the end allocate.
type fifo[T any] struct {
	buf  []T
	head int // index of the oldest item
	n    int // items queued
}

func (q *fifo[T]) len() int { return q.n }

// at returns the i-th oldest item.
func (q *fifo[T]) at(i int) T { return q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(4, 2*len(q.buf)))
		for i := range q.n {
			buf[i] = q.at(i)
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pop removes and returns the oldest item; the queue must not be empty.
// The vacated slot is zeroed so the queue holds no stale reference.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
