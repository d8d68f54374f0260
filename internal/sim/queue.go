package sim

import "sort"

// Queue is a wait buffer: items leave from the front, in the order
// Push and Insert put them in. The zero value is an empty queue.
//
// The items are buf[head:]. A pop zeroes its slot and advances head;
// reslicing instead would regrow the buffer each time the window
// reached capacity. A push into a full buffer that is at least half
// popped slides the live items down instead of growing it, so each move
// is paid for by the pops before it, and a queue stops allocating once
// it has seen its deepest backlog.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len returns the number of waiting items.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// At returns waiting item i, which must be below Len; item 0 leaves
// next.
func (q *Queue[T]) At(i int) T { return q.buf[q.head+i] }

// Push adds v at the back.
func (q *Queue[T]) Push(v T) {
	if n := len(q.buf); n == cap(q.buf) && q.head >= n/2 && q.head > 0 {
		live := copy(q.buf, q.buf[q.head:])
		clear(q.buf[live:])
		q.buf, q.head = q.buf[:live], 0
	}
	q.buf = append(q.buf, v)
}

// Insert adds v to a queue kept sorted by less, after every waiting
// item it is not less than (the upper bound), so items that tie leave
// in arrival order, exactly where a stable sort of the queue with v
// appended would place it. An item no waiting one exceeds is appended
// without a search.
func (q *Queue[T]) Insert(v T, less func(a, b T) bool) {
	q.Push(v)
	live := q.buf[q.head:]
	n := len(live) - 1
	if n == 0 || !less(v, live[n-1]) {
		return
	}
	i := sort.Search(n, func(i int) bool { return less(v, live[i]) })
	copy(live[i+1:], live[i:n])
	live[i] = v
}

// Pop removes and returns the front item; the queue must not be empty.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// Filter keeps the waiting items for which keep returns true, in their
// order, at the front of the buffer, and zeroes the slots the others
// leave. Each item's slot is zeroed before keep sees the item, so keep
// may finish or recycle a dropped item without the queue still showing
// it. keep must not push to or pop from q.
func (q *Queue[T]) Filter(keep func(T) bool) {
	var zero T
	n := 0
	for i := q.head; i < len(q.buf); i++ {
		v := q.buf[i]
		q.buf[i] = zero
		if keep(v) {
			q.buf[n] = v
			n++
		}
	}
	q.buf, q.head = q.buf[:n], 0
}
