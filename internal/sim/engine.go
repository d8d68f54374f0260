// Package sim provides a deterministic discrete-event simulation kernel.
//
// The engine maintains a virtual clock and an event heap ordered by
// (time, sequence). All callbacks run on the caller's goroutine inside
// Run/Step, so simulations built on the engine need no locking and are
// bit-for-bit reproducible for a given seed and event schedule.
//
// Station is the one queueing server built on it: a single-server FIFO
// that serves one job at a time or, after SetBatching, coalesces
// waiting jobs into batches. Chained, stations model pipelines. Queue
// is the wait buffer behind a station's FIFO, also used for ordered
// waiting lists.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in seconds.
type Time = float64

// Forever is a time later than any event a simulation will schedule.
const Forever Time = math.MaxFloat64

// Event is a scheduled callback, created through Engine.At or
// Engine.After. A caller may also own an Event — embedded in its own
// state, starting as the zero value — and schedule it with Engine.Rearm
// as often as it likes, one pending firing at a time.
type Event struct {
	time      Time
	seq       uint64
	fn        func()
	index     int // heap slot; -1 when not queued
	cancelled bool
	fired     bool
}

// Time returns the virtual time at which the event fires.
func (e *Event) Time() Time { return e.time }

// Cancelled reports whether Cancel removed the event before it fired.
// Cancelling after the event ran is a no-op, so Cancelled and Fired are
// mutually exclusive. Rearm clears both.
func (e *Event) Cancelled() bool { return e.cancelled }

// Fired reports whether the event's callback has run.
func (e *Event) Fired() bool { return e.fired }

// before is the execution order: (time, seq) lexicographic. Sequence
// numbers are unique, so this is a total order and the firing order does
// not depend on the heap's shape.
func (e *Event) before(o *Event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now  Time
	seq  uint64
	heap []*Event // binary min-heap on (time, seq)
	// firing is the event whose callback is running while it still sits
	// at heap[0]; nil once its callback re-arms it, or between events.
	firing  *Event
	inFire  bool   // a callback is running
	nRun    uint64 // events executed
	cancels uint64 // events cancelled before firing
	peak    int    // deepest the heap ever got
	wall    time.Duration
}

// Stats is the engine's self-telemetry: how much work the kernel did and
// how fast it did it in wall-clock terms. Virtual-time behaviour is
// unaffected by collecting it; only WallSeconds and EventsPerSec vary
// between otherwise identical runs (they measure the host, not the
// model).
type Stats struct {
	// Executed counts events that fired.
	Executed uint64 `json:"events"`
	// Scheduled counts events ever scheduled (fired, pending or
	// cancelled). Every element of a Stream counts, from the moment the
	// stream starts.
	Scheduled uint64 `json:"scheduled"`
	// Cancellations counts events cancelled before firing.
	Cancellations uint64 `json:"cancellations"`
	// PeakHeapDepth is the largest number of events simultaneously
	// queued. A Stream occupies one slot however long it is.
	PeakHeapDepth int `json:"peak_heap_depth"`
	// WallSeconds is real time spent inside Run/RunUntil.
	WallSeconds float64 `json:"wall_seconds"`
	// EventsPerSec is Executed/WallSeconds (0 before any timed run).
	EventsPerSec float64 `json:"events_per_sec"`
}

// Stats returns the engine's self-telemetry so far.
func (e *Engine) Stats() Stats {
	s := Stats{
		Executed:      e.nRun,
		Scheduled:     e.seq,
		Cancellations: e.cancels,
		PeakHeapDepth: e.peak,
		WallSeconds:   e.wall.Seconds(),
	}
	if s.WallSeconds > 0 {
		s.EventsPerSec = float64(s.Executed) / s.WallSeconds
	}
	return s
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of queued events. Cancel removes events
// eagerly, so this is the heap size less the firing event, if it still
// holds the root; an unfinished Stream counts as one.
func (e *Engine) Pending() int {
	if e.firing != nil {
		return len(e.heap) - 1
	}
	return len(e.heap)
}

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.nRun }

// check panics unless t is a valid time to schedule at: scheduling in
// the past or at NaN always indicates a model bug.
func (e *Engine) check(t Time) {
	if !(t >= e.now) {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", t, e.now))
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) or at NaN panics.
func (e *Engine) At(t Time, fn func()) *Event {
	ev := new(Event)
	e.Rearm(ev, t, fn)
	return ev
}

// Rearm schedules the caller-owned event ev to run fn at absolute time
// t. At is Rearm on a fresh Event, so a re-armed event takes the same
// sequence number, and ties with other events in the same order, as an
// At call in its place; it just reuses ev instead of allocating one. ev
// may be the zero Event, one that fired or one that was cancelled, and
// Rearm resets its Fired and Cancelled; re-arming an event that is
// still pending panics, as does a time At would reject.
func (e *Engine) Rearm(ev *Event, t Time, fn func()) {
	if e.queued(ev) {
		panic(fmt.Sprintf("sim: re-arming an event still pending at %v", ev.time))
	}
	e.check(t)
	e.seq++
	ev.time, ev.seq, ev.fn = t, e.seq, fn
	ev.cancelled, ev.fired = false, false
	e.schedule(ev)
}

// queued reports whether ev is in the heap. The zero Event's index is 0,
// so the slot's occupant is the authority, not the index alone. The
// firing event's index is -1 while it holds the root, so it is not
// queued: Cancel on it is a no-op and Rearm re-seats it.
func (e *Engine) queued(ev *Event) bool {
	i := ev.index
	return i >= 0 && i < len(e.heap) && e.heap[i] == ev
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Stream schedules n callbacks: fn(i) runs at time at(i), for i in
// [0, n). The times must be non-decreasing in i; a decrease panics when
// the stream reaches it, as scheduling in the past does.
//
// The stream keeps one event in the heap at a time, scheduling element
// i+1 when element i fires, so a long pre-sorted arrival trace costs one
// heap slot instead of n. Its n sequence numbers are reserved now, so
// the firing order — including exact-time ties with each other and with
// any other event — is the one n At calls made here would produce.
func (e *Engine) Stream(n int, at func(i int) Time, fn func(i int)) {
	if n <= 0 {
		return
	}
	t := at(0)
	e.check(t)
	s := &stream{e: e, n: n, base: e.seq + 1, at: at, fn: fn}
	e.seq += uint64(n)
	s.ev = Event{time: t, seq: s.base, fn: s.fire}
	e.schedule(&s.ev)
}

// stream is the state of one Stream call: a single Event that stands for
// element next and is requeued for each element in turn.
type stream struct {
	e    *Engine
	ev   Event
	next int
	n    int
	base uint64 // sequence number of element 0
	at   func(int) Time
	fn   func(int)
}

func (s *stream) fire() {
	i := s.next
	s.next++
	if s.next < s.n {
		t := s.at(s.next)
		s.e.check(t)
		s.ev.time, s.ev.seq, s.ev.fired = t, s.base+uint64(s.next), false
		s.e.schedule(&s.ev)
	}
	s.fn(i)
}

// Cancel removes ev from the schedule. Cancelling an event that is not
// pending — already fired, already cancelled, or a caller-owned Event
// never armed — is a true no-op: it neither marks the event cancelled
// nor counts toward Stats.Cancellations.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || !e.queued(ev) {
		return
	}
	ev.cancelled = true
	e.cancels++
	e.remove(ev.index)
}

// Step executes the single earliest event. It reports false when no
// events remain. Cancelled events are removed eagerly by Cancel, so
// whatever is at the heap top is live.
func (e *Engine) Step() bool {
	e.checkNotFiring()
	if len(e.heap) == 0 {
		return false
	}
	e.fire()
	return true
}

// checkNotFiring panics inside a callback: Step, RunUntil and Run may
// not nest.
func (e *Engine) checkNotFiring() {
	if e.inFire {
		panic("sim: Step, RunUntil or Run called from inside an event callback")
	}
}

// fire runs the root event's callback with the event left at the root.
// Everything scheduled meanwhile sorts after it (time >= now, a larger
// seq), so no push or cancel moves the root. If the callback re-arms the
// event, schedule sifts it down from the root; otherwise it is removed
// afterwards, as a pop would have.
func (e *Engine) fire() {
	ev := e.heap[0]
	ev.index = -1
	e.firing, e.inFire = ev, true
	e.now = ev.time
	ev.fired = true
	e.nRun++
	ev.fn()
	e.inFire = false
	if e.firing != nil {
		e.firing = nil
		e.remove(0)
	}
}

// RunUntil executes events in order until the clock would pass t or the
// schedule drains. After the call Now() == t unless the schedule drained
// earlier, in which case the clock stays at the last event time.
func (e *Engine) RunUntil(t Time) {
	e.checkNotFiring()
	start := time.Now()
	for len(e.heap) > 0 && e.heap[0].time <= t {
		e.fire()
	}
	if e.now < t && t != Forever {
		e.now = t
	}
	e.wall += time.Since(start)
}

// Run executes events until the schedule drains.
func (e *Engine) Run() {
	start := time.Now()
	for e.Step() {
	}
	e.wall += time.Since(start)
}

// schedule queues ev, whose time and seq are set. The firing event is
// re-seated: it takes its own root slot back and sifts down once,
// instead of a pop and a push.
func (e *Engine) schedule(ev *Event) {
	if ev == e.firing {
		e.firing = nil
		e.down(0, ev)
	} else {
		e.heap = append(e.heap, ev)
		e.up(len(e.heap)-1, ev)
	}
	if n := e.Pending(); n > e.peak {
		e.peak = n
	}
}

// remove deletes the event in slot i, refilling the slot with the last
// event and sifting that one to its place.
func (e *Engine) remove(i int) {
	h := e.heap
	last := len(h) - 1
	h[i].index = -1
	moved := h[last]
	h[last] = nil
	e.heap = h[:last]
	if i == last {
		return
	}
	if !e.down(i, moved) {
		e.up(i, moved)
	}
}

// up places ev, which belongs in slot i or above, moving parents down
// into the hole until ev's place is found.
func (e *Engine) up(i int, ev *Event) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// down places ev, which belongs in slot i0 or below, moving the lesser
// child up into the hole until ev's place is found. It reports whether
// ev ended below i0.
func (e *Engine) down(i0 int, ev *Event) bool {
	h := e.heap
	n := len(h)
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(ev) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = ev
	ev.index = i
	return i > i0
}
