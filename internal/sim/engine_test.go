package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want 3", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineAfterRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 15 {
		t.Errorf("After fired at %v, want 15", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
	// Double cancel and nil cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestEngineCancelDuringRun(t *testing.T) {
	e := NewEngine()
	fired := false
	var ev *Event
	e.At(1, func() { e.Cancel(ev) })
	ev = e.At(2, func() { fired = true })
	e.Run()
	if fired {
		t.Error("event cancelled by earlier event still fired")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, tm := range []Time{1, 2, 3, 4, 5} {
		tm := tm
		e.At(tm, func() { fired = append(fired, tm) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %d events by t=3, want 3", len(fired))
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want 3", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Errorf("fired %d events total, want 5", len(fired))
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v after RunUntil(10), want 10", e.Now())
	}
}

func TestEngineRunUntilAllCancelled(t *testing.T) {
	e := NewEngine()
	ev1 := e.At(1, func() {})
	ev2 := e.At(2, func() {})
	e.Cancel(ev1)
	e.Cancel(ev2)
	e.RunUntil(5) // must not panic
	if e.Now() != 5 {
		t.Errorf("Now = %v, want 5", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

// TestEngineScheduleTimes: At and After accept any time at or after now
// and panic on the past and on NaN, which no ordering can place.
func TestEngineScheduleTimes(t *testing.T) {
	for _, c := range []struct {
		name  string
		sched func(e *Engine)
		panic bool
	}{
		{"At now", func(e *Engine) { e.At(2, func() {}) }, false},
		{"At later", func(e *Engine) { e.At(3, func() {}) }, false},
		{"At +Inf", func(e *Engine) { e.At(math.Inf(1), func() {}) }, false},
		{"At past", func(e *Engine) { e.At(1, func() {}) }, true},
		{"At -Inf", func(e *Engine) { e.At(math.Inf(-1), func() {}) }, true},
		{"At NaN", func(e *Engine) { e.At(math.NaN(), func() {}) }, true},
		{"After NaN", func(e *Engine) { e.After(math.NaN(), func() {}) }, true},
		{"Stream NaN", func(e *Engine) {
			e.Stream(1, func(int) Time { return math.NaN() }, func(int) {})
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			e.RunUntil(2)
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				c.sched(e)
				return false
			}()
			if panicked != c.panic {
				t.Fatalf("panicked = %v, want %v", panicked, c.panic)
			}
			want := 1
			if c.panic {
				want = 0
			}
			if e.Pending() != want {
				t.Fatalf("Pending = %d, want %d", e.Pending(), want)
			}
		})
	}
}

func TestEngineCancelAfterFire(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.After(1, func() { ran = true })
	e.Run()
	if !ran || !ev.Fired() {
		t.Fatalf("event did not fire")
	}
	e.Cancel(ev)
	if ev.Cancelled() {
		t.Fatalf("Cancel after fire marked the event cancelled")
	}
	if got := e.Stats().Cancellations; got != 0 {
		t.Fatalf("Cancel after fire counted as a cancellation: %d", got)
	}
}

// TestEngineCancelNeverArmed: a caller-owned Event that was never armed
// is the zero Event, whose heap index is 0. Cancelling it must leave the
// event that does sit in slot 0 alone.
func TestEngineCancelNeverArmed(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(1, func() { fired = true })
	var ev Event
	e.Cancel(&ev)
	if ev.Cancelled() {
		t.Error("Cancel marked a never-armed event cancelled")
	}
	if got := e.Stats().Cancellations; got != 0 {
		t.Errorf("Cancel of a never-armed event counted %d cancellations, want 0", got)
	}
	e.Run()
	if !fired {
		t.Error("cancelling a never-armed event removed the pending one")
	}
}

func TestEngineCancelTwice(t *testing.T) {
	e := NewEngine()
	ev := e.After(1, func() {})
	e.After(2, func() {})
	e.Cancel(ev)
	e.Cancel(ev)
	if got := e.Stats().Cancellations; got != 1 {
		t.Fatalf("double Cancel counted %d cancellations, want 1", got)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

func TestEnginePendingInterleaved(t *testing.T) {
	e := NewEngine()
	evs := make([]*Event, 6)
	for i := range evs {
		evs[i] = e.After(float64(i+1), func() {})
	}
	e.Cancel(evs[2]) // cancel a queued event
	e.Step()         // fire evs[0]
	e.Cancel(evs[0]) // no-op: already fired
	e.Cancel(evs[4])
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	e.Run()
	if got := e.Executed(); got != 4 {
		t.Fatalf("Executed = %d, want 4", got)
	}
	s := e.Stats()
	if s.Cancellations != 2 {
		t.Fatalf("Cancellations = %d, want 2", s.Cancellations)
	}
}

func TestEngineRunUntilForeverDrained(t *testing.T) {
	e := NewEngine()
	e.RunUntil(Forever) // empty schedule: clock must stay at 0, not jump to Forever
	if e.Now() != 0 {
		t.Fatalf("Now = %v after RunUntil(Forever) on empty schedule", e.Now())
	}
	e.After(3, func() {})
	e.RunUntil(Forever)
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3 (last event time)", e.Now())
	}
}

// TestEngineZeroDelayTies: zero-delay events scheduled from a callback
// fire after it, in scheduling order, before any later-time event and
// after every event already queued at the same time.
func TestEngineZeroDelayTies(t *testing.T) {
	e := NewEngine()
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	e.At(1, func() {
		order = append(order, "a")
		e.After(0, func() {
			order = append(order, "c")
			e.After(0, note("e"))
		})
		e.After(0, note("d"))
	})
	e.At(1, note("b"))
	e.At(1.5, note("f"))
	e.Run()
	want := []string{"a", "b", "c", "d", "e", "f"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestEngineScheduleThenCancel: an event scheduled and cancelled inside
// one callback never fires and is counted once, at both a tie with the
// current time and a later time.
func TestEngineScheduleThenCancel(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(1, func() {
		e.Cancel(e.After(0, func() { t.Error("cancelled zero-delay event fired") }))
		e.Cancel(e.After(0.005, func() { t.Error("cancelled event fired") }))
		e.After(0.005, func() { fired++ })
	})
	e.Run()
	s := e.Stats()
	if fired != 1 || s.Executed != 2 || s.Scheduled != 4 || s.Cancellations != 2 {
		t.Fatalf("fired %d, stats %+v; want 1 fired, 2 executed of 4 scheduled, 2 cancelled", fired, s)
	}
}

// TestEngineScheduleBelowNextEvent: an event a callback schedules
// between now and the next queued event fires before that event.
func TestEngineScheduleBelowNextEvent(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(1, func() {
		order = append(order, "x@1")
		e.After(0, func() { order = append(order, "y@1") })
		e.After(0.5, func() { order = append(order, "y@1.5") })
	})
	e.At(2, func() { order = append(order, "x@2") })
	e.Run()
	want := []string{"x@1", "y@1", "y@1.5", "x@2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// checkHeap asserts the heap invariant and every event's slot index.
// The firing event, while it still holds the root, is indexed -1.
func checkHeap(t *testing.T, e *Engine) {
	t.Helper()
	for i, ev := range e.heap {
		want := i
		if i == 0 && ev == e.firing {
			want = -1
		}
		if ev.index != want {
			t.Fatalf("slot %d holds an event indexed %d", i, ev.index)
		}
		if i > 0 && ev.before(e.heap[(i-1)/2]) {
			t.Fatalf("slot %d is before its parent", i)
		}
	}
}

// key is a firing's place in the (time, seq) order.
type key struct {
	t   Time
	seq uint64
}

func (k key) less(o key) bool {
	if k.t != o.t {
		return k.t < o.t
	}
	return k.seq < o.seq
}

// heapModel is the reference schedule TestEngineHeapRandomized holds the
// engine to: the pending events, at most one Stream, and the Stats the
// engine must report (wall fields aside).
type heapModel struct {
	queued map[*Event]bool
	sev    *Event // the stream's event, nil before the stream starts
	stimes []Time
	sbase  uint64
	snext  int // next stream element to fire
	stats  Stats
}

func (m *heapModel) pending() int {
	n := len(m.queued)
	if m.snext < len(m.stimes) {
		n++
	}
	return n
}

// add records one scheduling of ev (nil for a stream start, which
// schedules n).
func (m *heapModel) add(ev *Event, n int) {
	if ev != nil {
		m.queued[ev] = true
	}
	m.stats.Scheduled += uint64(n)
	m.stats.PeakHeapDepth = max(m.stats.PeakHeapDepth, m.pending())
}

// least is the key the engine must fire next.
func (m *heapModel) least() key {
	best := key{t: math.Inf(1)}
	for ev := range m.queued {
		if k := (key{ev.time, ev.seq}); k.less(best) {
			best = k
		}
	}
	if i := m.snext; i < len(m.stimes) {
		if k := (key{m.stimes[i], m.sbase + uint64(i)}); k.less(best) {
			best = k
		}
	}
	return best
}

// TestEngineHeapRandomized drives seeded random interleavings of At,
// After, Rearm (of a caller-owned event, including one still pending,
// which must panic), Cancel (of the root, the last slot, a middle slot,
// a random queued event and an already-fired one), a Stream, and Step.
// Callbacks do the same from inside a firing: schedule ties, re-arm or
// cancel other events, and re-arm or cancel their own event, before or
// after touching the others. Every firing must be the least pending
// event by (time, seq), and Pending and every Stats count must match
// the reference, inside callbacks as well as between Steps.
func TestEngineHeapRandomized(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := NewRNG(seed, "heap")
		e := NewEngine()
		m := &heapModel{queued: map[*Event]bool{}}
		owned := make([]Event, 6)
		var firedEvs []*Event
		// Callbacks schedule only while budget lasts, so the drain ends.
		budget := 2000
		// Coarse delays: many exact ties.
		delay := func() Time { return Time(rng.Intn(8)) * 0.25 }
		check := func(where string) {
			t.Helper()
			checkHeap(t, e)
			if e.Pending() != m.pending() {
				t.Fatalf("seed %d %s: Pending = %d, want %d", seed, where, e.Pending(), m.pending())
			}
			s := e.Stats()
			s.WallSeconds, s.EventsPerSec = 0, 0
			if s != m.stats {
				t.Fatalf("seed %d %s: stats %+v, want %+v", seed, where, s, m.stats)
			}
		}
		// fired checks that the firing k is the one due and books it.
		fired := func(k key) {
			t.Helper()
			if want := m.least(); k != want {
				t.Fatalf("seed %d: fired %+v, want %+v", seed, k, want)
			}
			m.stats.Executed++
		}

		var act func(self *Event)
		fire := func(ev *Event) {
			fired(key{ev.time, ev.seq})
			delete(m.queued, ev)
			firedEvs = append(firedEvs, ev)
			if !ev.Fired() {
				t.Fatalf("seed %d: a firing event does not report Fired", seed)
			}
			check("callback start")
			act(ev)
		}
		// arm schedules a fresh event (ev nil, through At or After) or
		// re-arms ev, and books it.
		arm := func(ev *Event, at Time) {
			budget--
			switch {
			case ev != nil:
				e.Rearm(ev, at, func() { fire(ev) })
			case rng.Intn(2) == 0:
				var p *Event
				p = e.At(at, func() { fire(p) })
				ev = p
			default:
				var p *Event
				p = e.After(at-e.Now(), func() { fire(p) })
				ev = p
			}
			m.add(ev, 1)
		}
		cancel := func(ev *Event) {
			if ev == nil {
				e.Cancel(nil) // a no-op
				return
			}
			if ev == m.sev {
				return // the stream's event is the engine's, not the caller's
			}
			was, already := m.queued[ev], ev.Cancelled()
			e.Cancel(ev)
			if ev.Cancelled() != (was || already) {
				t.Fatalf("seed %d: Cancelled = %v after cancelling an event queued=%v", seed, ev.Cancelled(), was)
			}
			if was {
				delete(m.queued, ev)
				m.stats.Cancellations++
			}
		}
		victim := func() *Event {
			switch rng.Intn(5) {
			case 0:
				return e.heap[0]
			case 1:
				return e.heap[len(e.heap)-1]
			case 2:
				return e.heap[len(e.heap)/2]
			case 3:
				return e.heap[rng.Intn(len(e.heap))]
			}
			if len(firedEvs) > 0 {
				return firedEvs[rng.Intn(len(firedEvs))]
			}
			return nil
		}
		rearmOwned := func() {
			ev := &owned[rng.Intn(len(owned))]
			if !m.queued[ev] {
				arm(ev, e.Now()+delay())
				return
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("seed %d: re-arming a pending event did not panic", seed)
					}
				}()
				e.Rearm(ev, e.Now()+delay(), func() {})
			}()
		}
		// act is a callback's body; self is the firing event, nil for a
		// stream element.
		act = func(self *Event) {
			for budget > 0 {
				switch r := rng.Intn(16); {
				case r < 2:
					arm(nil, e.Now()+delay())
				case r < 3:
					rearmOwned()
				case r < 4 && len(e.heap) > 0:
					cancel(victim())
				case r < 6 && self != nil:
					cancel(self)
				case r < 8 && self != nil && !m.queued[self]:
					arm(self, e.Now()+delay())
				default:
					return
				}
				check("callback")
			}
		}

		for op := 0; op < 400; op++ {
			switch r := rng.Intn(22); {
			case r < 6:
				arm(nil, e.Now()+delay())
			case r < 9:
				rearmOwned()
			case r < 14 && len(e.heap) > 0:
				cancel(victim())
			case r < 15 && m.sev == nil:
				n := 1 + rng.Intn(30)
				m.stimes = make([]Time, n)
				at := e.Now()
				for i := range m.stimes {
					at += delay() / 2
					m.stimes[i] = at
				}
				m.sbase = m.stats.Scheduled + 1
				e.Stream(n, func(i int) Time { return m.stimes[i] }, func(i int) {
					fired(key{m.stimes[i], m.sbase + uint64(i)})
					m.snext = i + 1
					check("stream callback start")
					act(nil)
				})
				m.add(nil, n)
				for _, ev := range e.heap {
					if ev.seq == m.sbase {
						m.sev = ev
					}
				}
			case r >= 15 && len(e.heap) > 0:
				n := m.stats.Executed
				e.Step()
				if m.stats.Executed != n+1 {
					t.Fatalf("seed %d op %d: Step fired %d events", seed, op, m.stats.Executed-n)
				}
			}
			check(fmt.Sprintf("op %d", op))
		}
		e.Run()
		check("drain")
		if e.Pending() != 0 {
			t.Fatalf("seed %d: %d events left after Run", seed, e.Pending())
		}
		if m.sev == nil || m.stats.Cancellations == 0 {
			t.Fatalf("seed %d: schedule has no stream or no cancellation", seed)
		}
	}
}

// TestFiringEventSemantics: the firing event keeps the root slot while
// its callback runs, but callers see it as no longer pending. Inside
// its callback it reports Fired, and Cancel on it changes nothing; it
// may re-arm itself once, after which it is pending and a second Rearm
// panics. A nested Step, RunUntil or Run panics, before and after the
// re-arm.
func TestFiringEventSemantics(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	e := NewEngine()
	nested := func(when string) {
		for _, c := range []struct {
			name string
			f    func()
		}{
			{"Step", func() { e.Step() }},
			{"RunUntil", func() { e.RunUntil(10) }},
			{"Run", e.Run},
		} {
			if !panics(c.f) {
				t.Errorf("nested %s %s did not panic", c.name, when)
			}
		}
	}
	var ev Event
	calls := 0
	var fn func()
	fn = func() {
		if calls++; calls > 1 {
			return
		}
		if !ev.Fired() || ev.Cancelled() {
			t.Errorf("in its callback: fired=%v cancelled=%v, want true false", ev.Fired(), ev.Cancelled())
		}
		before, pending := e.Stats(), e.Pending()
		if pending != 1 {
			t.Errorf("Pending = %d in the callback, want 1 (the firing event excluded)", pending)
		}
		e.Cancel(&ev)
		if ev.Cancelled() || !ev.Fired() || e.Stats() != before || e.Pending() != pending {
			t.Errorf("Cancel of the firing event changed it: cancelled=%v fired=%v stats %+v (was %+v) pending %d",
				ev.Cancelled(), ev.Fired(), e.Stats(), before, e.Pending())
		}
		nested("before the re-arm")
		e.Rearm(&ev, 2, fn)
		if ev.Fired() || e.Pending() != 2 || e.Stats().PeakHeapDepth != 2 {
			t.Errorf("after re-arming itself: fired=%v Pending %d peak %d, want false 2 2",
				ev.Fired(), e.Pending(), e.Stats().PeakHeapDepth)
		}
		if !panics(func() { e.Rearm(&ev, 3, fn) }) {
			t.Error("a second Rearm of the re-armed firing event did not panic")
		}
		nested("after the re-arm")
	}
	e.Rearm(&ev, 1, fn)
	e.At(5, func() {})
	e.Run()
	want := Stats{Executed: 3, Scheduled: 3, PeakHeapDepth: 2}
	s := e.Stats()
	s.WallSeconds, s.EventsPerSec = 0, 0
	if calls != 2 || ev.Time() != 2 || e.Now() != 5 || s != want {
		t.Errorf("calls %d, event time %v, now %v, stats %+v; want 2 2 5 %+v", calls, ev.Time(), e.Now(), s, want)
	}
}

// streamWorkload schedules n arrivals at times[i] plus non-stream events
// tying with them, before and after the arrivals are scheduled and from
// inside arrival callbacks, and returns the firing log. With stream set
// the arrivals go through Stream, otherwise through one At each.
func streamWorkload(times []Time, stream bool) ([]string, Stats) {
	e := NewEngine()
	var log []string
	note := func(s string) func() {
		return func() { log = append(log, fmt.Sprintf("%v %s", e.Now(), s)) }
	}
	e.At(0, note("before@0"))
	e.At(1, note("before@1"))
	arrive := func(i int) {
		log = append(log, fmt.Sprintf("%v arrival %d", e.Now(), i))
		if i%3 == 0 {
			e.After(0, note(fmt.Sprintf("tie-from-%d", i)))
		}
		if i%4 == 0 {
			e.After(0.5, note(fmt.Sprintf("later-from-%d", i)))
		}
	}
	if stream {
		e.Stream(len(times), func(i int) Time { return times[i] }, arrive)
	} else {
		for i := range times {
			e.At(times[i], func() { arrive(i) })
		}
	}
	e.At(1, note("after@1"))
	e.At(2, note("after@2"))
	e.Run()
	return log, e.Stats()
}

// TestEngineStream: a Stream fires exactly as the same arrivals
// scheduled one At each, through ties inside the stream and ties with
// events scheduled before it, after it and by its own callbacks, while
// holding a single heap slot. An empty stream schedules nothing.
func TestEngineStream(t *testing.T) {
	for _, times := range [][]Time{
		{},
		{0},
		{0, 0, 0, 1, 1, 1.5, 2, 2, 2, 2, 3},
		{1, 1, 1, 1},
		{0.25, 0.5, 1, 1.25, 2.5, 2.5, 4},
	} {
		want, ws := streamWorkload(times, false)
		got, gs := streamWorkload(times, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("times %v:\n got %q\nwant %q", times, got, want)
		}
		if gs.Executed != ws.Executed || gs.Scheduled != ws.Scheduled {
			t.Fatalf("times %v: stream stats %+v, At stats %+v", times, gs, ws)
		}
	}
	rng := NewRNG(5, "stream")
	times := make([]Time, 500)
	for i := 1; i < len(times); i++ {
		times[i] = times[i-1] + Time(rng.Intn(3))*0.5 // many ties
	}
	want, ws := streamWorkload(times, false)
	got, gs := streamWorkload(times, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("randomized stream diverged from one At per arrival")
	}
	if gs.PeakHeapDepth >= ws.PeakHeapDepth/10 {
		t.Fatalf("stream peak heap %d, up-front peak %d: the stream is not lazy", gs.PeakHeapDepth, ws.PeakHeapDepth)
	}
}

// TestEngineStreamOneSlot: a long pre-sorted stream occupies one heap
// slot, reserves its sequence numbers up front, and fires every element.
func TestEngineStreamOneSlot(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Stream(1000, func(i int) Time { return Time(i) * 0.001 }, func(int) { n++ })
	if e.Pending() != 1 || e.Stats().Scheduled != 1000 {
		t.Fatalf("Pending = %d, Scheduled = %d; want 1 and 1000", e.Pending(), e.Stats().Scheduled)
	}
	e.Run()
	if s := e.Stats(); n != 1000 || s.Executed != 1000 || s.PeakHeapDepth != 1 {
		t.Fatalf("fired %d, stats %+v; want 1000 executed, peak heap 1", n, s)
	}
}

// TestEngineStreamRunUntil: elements after the RunUntil horizon stay
// queued, and a later RunUntil resumes the stream.
func TestEngineStreamRunUntil(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Stream(5, func(i int) Time { return Time(i) }, func(i int) { got = append(got, i) })
	e.RunUntil(2.5)
	if !reflect.DeepEqual(got, []int{0, 1, 2}) || e.Pending() != 1 {
		t.Fatalf("fired %v, Pending %d after RunUntil(2.5)", got, e.Pending())
	}
	e.RunUntil(10)
	if len(got) != 5 || e.Now() != 10 {
		t.Fatalf("fired %v, Now %v after RunUntil(10)", got, e.Now())
	}
}

// TestEngineStreamUnsortedPanics: a stream whose times decrease panics
// when it reaches the decrease, like scheduling in the past.
func TestEngineStreamUnsortedPanics(t *testing.T) {
	e := NewEngine()
	times := []Time{1, 2, 1.5}
	e.Stream(len(times), func(i int) Time { return times[i] }, func(int) {})
	defer func() {
		if recover() == nil {
			t.Fatal("decreasing stream did not panic")
		}
	}()
	e.Run()
}

func TestEnginePendingExecuted(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {})
	ev := e.At(2, func() {})
	e.Cancel(ev)
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if e.Executed() != 1 {
		t.Errorf("Executed = %d, want 1", e.Executed())
	}
}

// Property: for any set of event times, execution order is sorted.
func TestEngineSortedExecutionProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			tm := Time(r)
			e.At(tm, func() { fired = append(fired, tm) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	a1 := NewRNG(42, "a")
	b := NewRNG(42, "b")
	_ = b.Float64() // consuming from b must not affect a
	a2 := NewRNG(42, "a")
	for i := 0; i < 100; i++ {
		if a1.Float64() != a2.Float64() {
			t.Fatal("same-name streams diverged")
		}
	}
}

func TestRNGDeterministic(t *testing.T) {
	g1 := NewRNG(7, "x")
	g2 := NewRNG(7, "x")
	for i := 0; i < 1000; i++ {
		if g1.Intn(100) != g2.Intn(100) {
			t.Fatal("RNG not deterministic")
		}
	}
}

func TestRNGPoissonMean(t *testing.T) {
	for _, mean := range []float64{0.5, 3, 25, 100} {
		g := NewRNG(1, "poisson")
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += g.Poisson(mean)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean) > mean*0.05+0.1 {
			t.Errorf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
}

func TestRNGPoissonZeroAndNegative(t *testing.T) {
	g := NewRNG(1, "p0")
	if g.Poisson(0) != 0 || g.Poisson(-3) != 0 {
		t.Error("Poisson of non-positive mean should be 0")
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(9, "exp")
	n := 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Exp(2.5)
	}
	got := sum / float64(n)
	if math.Abs(got-2.5) > 0.1 {
		t.Errorf("Exp(2.5) sample mean = %v", got)
	}
}

// TestEngineStats: the engine's self-telemetry counts executed and
// scheduled events, cancellations, and the deepest heap seen, and
// reports a positive wall-clock processing rate after a run.
func TestEngineStats(t *testing.T) {
	e := NewEngine()
	for i := 1; i <= 5; i++ {
		e.At(float64(i), func() {})
	}
	ev := e.At(10, func() { t.Error("cancelled event ran") })
	e.Cancel(ev)
	e.Run()
	s := e.Stats()
	if s.Executed != 5 {
		t.Errorf("Executed = %d, want 5", s.Executed)
	}
	if s.Scheduled != 6 {
		t.Errorf("Scheduled = %d, want 6", s.Scheduled)
	}
	if s.Cancellations != 1 {
		t.Errorf("Cancellations = %d, want 1", s.Cancellations)
	}
	if s.PeakHeapDepth != 6 {
		t.Errorf("PeakHeapDepth = %d, want 6", s.PeakHeapDepth)
	}
	if s.WallSeconds <= 0 || s.EventsPerSec <= 0 {
		t.Errorf("wall %v rate %v, want both positive", s.WallSeconds, s.EventsPerSec)
	}
}

// TestEngineStatsZero: a fresh engine reports zeros without dividing by
// a zero wall clock.
func TestEngineStatsZero(t *testing.T) {
	s := NewEngine().Stats()
	if s != (Stats{}) {
		t.Errorf("fresh engine stats = %+v, want zero", s)
	}
}

// firing is one event's (time, seq) as it fired, and which actor owned it.
type firing struct {
	t     Time
	seq   uint64
	actor int
}

// rearmWorkload runs a seeded schedule of actors. Each keeps one event
// pending, reschedules itself when it fires (coarse delays: many exact
// ties) and now and then cancels some actor's pending event and
// schedules it again. With owned set every actor re-arms one Event of
// its own; otherwise each scheduling is a fresh At.
func rearmWorkload(seed int64, owned bool) ([]firing, Stats) {
	const actors = 8
	rng := NewRNG(seed, "rearm")
	e := NewEngine()
	evs := make([]*Event, actors) // each actor's latest event
	own := make([]Event, actors)
	left := make([]int, actors)
	var log []firing
	delay := func() Time { return Time(rng.Intn(4)) * 0.5 }
	var arm func(a int, t Time)
	arm = func(a int, t Time) {
		fn := func() {
			log = append(log, firing{e.Now(), evs[a].seq, a})
			if left[a]--; left[a] > 0 {
				arm(a, e.Now()+delay())
			}
			if rng.Intn(5) == 0 {
				b := rng.Intn(actors)
				if ev := evs[b]; !ev.Fired() && !ev.Cancelled() {
					e.Cancel(ev)
					arm(b, e.Now()+delay())
				}
			}
		}
		if owned {
			e.Rearm(&own[a], t, fn)
			evs[a] = &own[a]
		} else {
			evs[a] = e.At(t, fn)
		}
	}
	for a := 0; a < actors; a++ {
		left[a] = 20 + rng.Intn(20)
		arm(a, Time(rng.Intn(3)))
	}
	e.Run()
	s := e.Stats()
	s.WallSeconds, s.EventsPerSec = 0, 0
	return log, s
}

// TestRearmMatchesAt: a caller-owned event re-armed through Rearm fires
// in exactly the (time, seq) order, and leaves exactly the Stats, that
// the same schedule gets from one At per scheduling — Rearm only saves
// the allocation. Re-arming a pending event panics; an event can be
// re-armed after it fires and after Cancel, which clears both Fired and
// Cancelled.
func TestRearmMatchesAt(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		atLog, atStats := rearmWorkload(seed, false)
		ownLog, ownStats := rearmWorkload(seed, true)
		if !reflect.DeepEqual(ownLog, atLog) {
			t.Fatalf("seed %d: re-armed events fired differently from At", seed)
		}
		if ownStats != atStats {
			t.Fatalf("seed %d: stats %+v, want %+v", seed, ownStats, atStats)
		}
		if atStats.Cancellations == 0 {
			t.Fatalf("seed %d: schedule cancelled nothing", seed)
		}
	}

	e := NewEngine()
	var ev Event
	n := 0
	e.Rearm(&ev, 1, func() { n++ })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("re-arming a pending event did not panic")
			}
		}()
		e.Rearm(&ev, 2, func() {})
	}()
	e.Run()
	if !ev.Fired() || n != 1 {
		t.Fatalf("fired=%v n=%d, want the first arming to fire once", ev.Fired(), n)
	}
	e.Rearm(&ev, 3, func() { n++ })
	if ev.Fired() || ev.Time() != 3 {
		t.Errorf("re-armed after firing: fired=%v time=%v, want false 3", ev.Fired(), ev.Time())
	}
	e.Cancel(&ev)
	if !ev.Cancelled() {
		t.Fatal("Cancel did not cancel the re-armed event")
	}
	e.Rearm(&ev, 4, func() { n += 10 })
	if ev.Cancelled() || ev.Fired() {
		t.Errorf("re-armed after Cancel: cancelled=%v fired=%v, want both false",
			ev.Cancelled(), ev.Fired())
	}
	e.Run()
	if n != 11 || e.Now() != 4 || !ev.Fired() {
		t.Errorf("n=%d now=%v fired=%v, want 11 4 true", n, e.Now(), ev.Fired())
	}
}

// BenchmarkEngineHold times the kernel in the hold model: the heap
// holds a fixed number of events, and each firing re-arms its own event
// an exponential delay later, so one op is one firing at a constant
// depth: a re-seat of the root. In the mixed cases every other firing
// schedules a fresh At instead, so half the ops are a removal of the
// root after the callback and a push. Depths 40 and 317 are the peak
// heap depths of the bench paper and scale workloads.
func BenchmarkEngineHold(b *testing.B) {
	b.Run("mixed", func(b *testing.B) { benchHold(b, true) })
	benchHold(b, false)
}

func benchHold(b *testing.B, mixed bool) {
	for _, depth := range []int{40, 317} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := NewEngine()
			rng := NewRNG(1, "hold")
			evs := make([]Event, depth)
			n := 0
			for i := range evs {
				ev := &evs[i]
				var fire func()
				fire = func() {
					// ev is not pending: one event per slot is queued,
					// and this firing is it.
					if n++; mixed && n%2 == 0 {
						e.At(e.Now()+rng.Exp(1), fire)
					} else {
						e.Rearm(ev, e.Now()+rng.Exp(1), fire)
					}
				}
				e.Rearm(ev, rng.Exp(1), fire)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			if e.Pending() != depth {
				b.Fatalf("%d events pending, want %d", e.Pending(), depth)
			}
		})
	}
}
