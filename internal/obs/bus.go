package obs

// Bus is a streaming fan-out of values with a bounded ring as the
// default sink. Subscribers see every published value synchronously and
// losslessly, in publish order; the ring retains only the newest
// Capacity values for after-the-fact inspection and counts what it
// overwrote instead of dropping silently. The zero value is unusable;
// build buses with NewBus.
//
// The bus is deliberately synchronous and takes no lock. It is written
// and read on the engine goroutine: Publish calls each subscriber
// inline, so subscribing observers cannot reorder or lose events, and
// determinism is preserved as long as subscribers only observe. Other
// goroutines may read it (Total, Dropped, Snapshot) only after the run
// ends.
type Bus[T any] struct {
	ring Ring[T]
	subs []func(T)
}

// DefaultBusCapacity is the ring size when NewBus or NewRing is given a
// non-positive capacity.
const DefaultBusCapacity = 4096

// NewBus returns a bus whose ring retains the newest capacity values
// (DefaultBusCapacity when capacity <= 0).
func NewBus[T any](capacity int) *Bus[T] {
	return &Bus[T]{ring: NewRing[T](capacity)}
}

// Subscribe registers fn to be called synchronously with every value
// published after this point, for the rest of the bus's life.
func (b *Bus[T]) Subscribe(fn func(T)) {
	b.subs = append(b.subs, fn)
}

// Publish appends v to the ring (overwriting the oldest value when
// full) and delivers it to every subscriber in subscription order.
func (b *Bus[T]) Publish(v T) {
	b.ring.Push(v)
	for _, fn := range b.subs {
		fn(v)
	}
}

// Total returns how many values were ever published.
func (b *Bus[T]) Total() int { return b.ring.Total() }

// Dropped returns how many published values the ring has overwritten —
// the loss a Snapshot consumer sees (subscribers see everything).
func (b *Bus[T]) Dropped() int { return b.ring.Dropped() }

// Snapshot returns the retained values oldest-first.
func (b *Bus[T]) Snapshot() []T { return b.ring.Snapshot() }

// Ring is a bounded buffer that retains the newest Capacity values and
// counts the ones it overwrote. It takes no lock: its owners, a Bus and
// the decision recorder, are written on the engine goroutine.
type Ring[T any] struct {
	capacity int
	buf      []T
	next     int
	total    int
}

// NewRing returns a ring that retains the newest capacity values
// (DefaultBusCapacity when capacity <= 0).
func NewRing[T any](capacity int) Ring[T] {
	if capacity <= 0 {
		capacity = DefaultBusCapacity
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
