package obs

// DefaultRingCapacity is the ring size when NewRing is given a
// non-positive capacity.
const DefaultRingCapacity = 4096

// Ring is a bounded buffer that retains the newest Capacity values and
// counts the ones it overwrote. It takes no lock: its owner, the
// decision recorder, is written on the engine goroutine, and other
// goroutines may read it only after the run ends.
type Ring[T any] struct {
	capacity int
	buf      []T
	next     int
	total    int
}

// NewRing returns a ring that retains the newest capacity values
// (DefaultRingCapacity when capacity <= 0).
func NewRing[T any](capacity int) Ring[T] {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return Ring[T]{capacity: capacity}
}

// Push appends v, overwriting the oldest value when the ring is full.
func (r *Ring[T]) Push(v T) {
	if r.buf == nil {
		r.buf = make([]T, 0, r.capacity)
	}
	if len(r.buf) < r.capacity {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.next] = v
	}
	r.next = (r.next + 1) % r.capacity
	r.total++
}

// Total returns how many values were ever pushed.
func (r *Ring[T]) Total() int { return r.total }

// Dropped returns how many pushed values the ring has overwritten.
func (r *Ring[T]) Dropped() int { return r.total - len(r.buf) }

// Snapshot returns the retained values oldest-first.
func (r *Ring[T]) Snapshot() []T {
	if len(r.buf) < r.capacity {
		out := make([]T, len(r.buf))
		copy(out, r.buf)
		return out
	}
	out := make([]T, 0, r.capacity)
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
