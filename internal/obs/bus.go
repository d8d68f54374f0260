package obs

import "sync"

// Bus is a streaming fan-out of values with a bounded ring as the
// default sink. Subscribers see every published value synchronously and
// losslessly, in publish order; the ring retains only the newest
// Capacity values for after-the-fact inspection and counts what it
// overwrote instead of dropping silently. The zero value is unusable;
// build buses with NewBus.
//
// The bus is deliberately synchronous (the simulation engine runs
// everything on one goroutine): Publish calls each subscriber inline, so
// subscribing observers cannot reorder or lose events, and determinism
// is preserved as long as subscribers only observe. Ring and
// subscription state are additionally mutex-guarded so a live reader on
// another goroutine — the introspection server, or a concurrent test —
// can Snapshot/Subscribe safely while the simulation publishes. Subscribers run outside the lock; under
// concurrent publishers their delivery order is the lock-acquisition
// order of the ring update.
type Bus[T any] struct {
	mu   sync.Mutex
	ring Ring[T]
	// subs is copy-on-write: Publish delivers from the list it read
	// under the lock, so cancel never changes a slot in place.
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
// published after this point. The returned cancel function removes the
// subscription (idempotent).
func (b *Bus[T]) Subscribe(fn func(T)) (cancel func()) {
	b.mu.Lock()
	b.subs = append(b.subs, fn)
	idx := len(b.subs) - 1
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.subs[idx] != nil {
			subs := make([]func(T), len(b.subs))
			copy(subs, b.subs)
			subs[idx] = nil
			b.subs = subs
		}
	}
}

// Publish appends v to the ring (overwriting the oldest value when
// full) and delivers it to every live subscriber in subscription order.
func (b *Bus[T]) Publish(v T) {
	b.mu.Lock()
	b.ring.Push(v)
	subs := b.subs
	b.mu.Unlock()
	for _, fn := range subs {
		if fn != nil {
			fn(v)
		}
	}
}

// Total returns how many values were ever published.
func (b *Bus[T]) Total() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring.Total()
}

// Dropped returns how many published values the ring has overwritten —
// the loss a Snapshot consumer sees (subscribers see everything).
func (b *Bus[T]) Dropped() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring.Dropped()
}

// Snapshot returns the retained values oldest-first.
func (b *Bus[T]) Snapshot() []T {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring.Snapshot()
}

// Ring is a bounded buffer that retains the newest Capacity values and
// counts the ones it overwrote. It takes no lock: a Bus guards its ring
// with its own mutex, and an owner that already holds a lock of its own
// (the decision recorder) keeps a Ring directly rather than pay for a
// second one.
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
