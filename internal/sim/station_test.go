package sim

import (
	"math"
	"slices"
	"testing"
)

func TestStationServesFIFO(t *testing.T) {
	e := NewEngine()
	st := NewStation(e)
	var done []int
	for i := 0; i < 3; i++ {
		i := i
		st.Enqueue(&Job{
			Service: func() Time { return 2 },
			Done:    func() { done = append(done, i) },
		})
	}
	e.Run()
	if len(done) != 3 || done[0] != 0 || done[1] != 1 || done[2] != 2 {
		t.Fatalf("completion order = %v", done)
	}
	if e.Now() != 6 {
		t.Errorf("three 2s jobs finished at %v, want 6", e.Now())
	}
}

// TestStationBusyTime: an idle station starts a job the moment it
// arrives and holds it for exactly its Service time, so the server is
// busy 5 of the 12 seconds two spaced-out jobs take.
func TestStationBusyTime(t *testing.T) {
	e := NewEngine()
	st := NewStation(e)
	var busy Time
	job := func(d Time) *Job {
		var start Time
		return &Job{
			Service: func() Time { start = e.Now(); return d },
			Done:    func() { busy += e.Now() - start },
		}
	}
	e.At(0, func() { st.Enqueue(job(3)) })
	e.At(10, func() { st.Enqueue(job(2)) })
	e.Run()
	if busy != 5 || e.Now() != 12 {
		t.Errorf("busy %v of %v s, want 5 of 12", busy, e.Now())
	}
}

// TestStationBusyTimeMidService: mid-service the station reports one
// job in service, which completes only when its Service time is up.
func TestStationBusyTimeMidService(t *testing.T) {
	e := NewEngine()
	st := NewStation(e)
	done := Time(-1)
	st.Enqueue(&Job{Service: func() Time { return 10 }, Done: func() { done = e.Now() }})
	var busy bool
	var inService int
	e.At(4, func() { busy, inService = st.Busy(), st.InService() })
	e.Run()
	if !busy || inService != 1 || done != 10 {
		t.Errorf("at 4: busy=%v in service %d; done at %v, want true, 1 and 10", busy, inService, done)
	}
}

func TestStationPauseResume(t *testing.T) {
	e := NewEngine()
	st := NewStation(e)
	st.Pause()
	finished := Time(-1)
	st.Enqueue(&Job{
		Service: func() Time { return 1 },
		Done:    func() { finished = e.Now() },
	})
	e.At(5, func() { st.Resume() })
	e.Run()
	if finished != 6 {
		t.Errorf("job finished at %v, want 6 (paused until 5)", finished)
	}
}

func TestStationPauseDoesNotAbortInService(t *testing.T) {
	e := NewEngine()
	st := NewStation(e)
	var done1, done2 Time
	st.Enqueue(&Job{Service: func() Time { return 4 }, Done: func() { done1 = e.Now() }})
	st.Enqueue(&Job{Service: func() Time { return 4 }, Done: func() { done2 = e.Now() }})
	e.At(1, func() { st.Pause() })
	e.At(10, func() { st.Resume() })
	e.Run()
	if done1 != 4 {
		t.Errorf("in-service job finished at %v, want 4", done1)
	}
	if done2 != 14 {
		t.Errorf("queued job finished at %v, want 14", done2)
	}
}

func TestStationQueueLen(t *testing.T) {
	e := NewEngine()
	st := NewStation(e)
	for i := 0; i < 5; i++ {
		st.Enqueue(&Job{Service: func() Time { return 1 }})
	}
	if st.QueueLen() != 4 { // one in service
		t.Errorf("QueueLen = %d, want 4", st.QueueLen())
	}
	if !st.Busy() {
		t.Error("station should be busy")
	}
	e.Run()
	if st.QueueLen() != 0 || st.Busy() {
		t.Error("station should be drained and idle")
	}
}

func TestStationNegativeServiceClamped(t *testing.T) {
	e := NewEngine()
	st := NewStation(e)
	ok := false
	st.Enqueue(&Job{Service: func() Time { return -5 }, Done: func() { ok = true }})
	e.Run()
	if !ok {
		t.Error("job with negative service time never completed")
	}
	if e.Now() != 0 {
		t.Errorf("clock advanced to %v for zero-length job", e.Now())
	}
}

// Tandem chain: two stations, second fed by first's Done. Verifies
// pipelining overlap: 3 jobs, each stage 2s -> makespan 2*(2)+2*(3-1)=8.
func TestStationTandemPipelineOverlap(t *testing.T) {
	e := NewEngine()
	s1 := NewStation(e)
	s2 := NewStation(e)
	var finish Time
	for i := 0; i < 3; i++ {
		j2 := &Job{Service: func() Time { return 2 }, Done: func() { finish = e.Now() }}
		s1.Enqueue(&Job{
			Service: func() Time { return 2 },
			Done:    func() { s2.Enqueue(j2) },
		})
	}
	e.Run()
	if finish != 8 {
		t.Errorf("pipeline makespan = %v, want 8 (overlapped)", finish)
	}
}

// TestStationTandemLindley: a FIFO tandem of deterministic stations is
// the Lindley recursion, exactly. Every job's departure from every stage
// must equal, to the bit, start + service with start = max(arrival at
// the stage, the previous job's departure from it), and a start that
// falls inside a stage's pause window waits for the resume. Arrivals
// come from the seeded generator with a share of zero gaps, so ties in
// arrival and between arrival and departure occur throughout.
func TestStationTandemLindley(t *testing.T) {
	service := []Time{0.8, 1.0, 0.6}
	const (
		jobs  = 2000
		stage = 1 // the stage paused over [pause, resume)
	)
	pause, resume := Time(200.3), Time(260.7)
	for seed := int64(1); seed <= 5; seed++ {
		rng := NewRNG(seed, "lindley")
		arrivals := make([]Time, jobs)
		at := Time(0)
		for i := range arrivals {
			if rng.Intn(5) != 0 {
				at += rng.Exp(1)
			}
			arrivals[i] = at
		}

		e := NewEngine()
		stations := make([]*Station, len(service))
		for k := range stations {
			stations[k] = NewStation(e)
		}
		dep := make([][]Time, len(service)) // dep[k][i]: job i leaves stage k
		for k := range dep {
			dep[k] = make([]Time, jobs)
		}
		served := 0
		var enter func(k, i int)
		enter = func(k, i int) {
			stations[k].Enqueue(&Job{
				Service: func() Time { return service[k] },
				Done: func() {
					dep[k][i] = e.Now()
					served++
					if k+1 < len(stations) {
						enter(k+1, i)
					}
				},
			})
		}
		for i, a := range arrivals {
			e.At(a, func() { enter(0, i) })
		}
		e.At(pause, stations[stage].Pause)
		e.At(resume, stations[stage].Resume)
		e.Run()

		if served != jobs*len(service) {
			t.Fatalf("seed %d: %d stage departures, want %d", seed, served, jobs*len(service))
		}
		held := 0
		in := arrivals
		for k, s := range service {
			prev := Time(0)
			for i, a := range in {
				start := max(a, prev)
				if k == stage && start >= pause && start < resume {
					start = resume
					held++
				}
				want := start + s
				if dep[k][i] != want {
					t.Fatalf("seed %d stage %d job %d: departed %v, Lindley says %v",
						seed, k, i, dep[k][i], want)
				}
				prev = want
			}
			in = dep[k]
		}
		if held == 0 {
			t.Fatalf("seed %d: the pause window held no job", seed)
		}
	}
}

// TestStationQueueBufferBounded: under a backlog that never drains the
// FIFO keeps reusing its buffer — popped slots are compacted away
// instead of growing the buffer forever — and popped slots hold no
// stale job.
func TestStationQueueBufferBounded(t *testing.T) {
	e := NewEngine()
	st := NewStation(e)
	job := func() *Job { return &Job{Service: func() Time { return 1 }} }
	const backlog = 50
	for i := 0; i < backlog; i++ {
		st.Enqueue(job())
	}
	maxLen, maxCap := 0, 0
	for i := 1; i <= 20000; i++ {
		e.At(Time(i), func() {
			st.Enqueue(job())
			maxLen = max(maxLen, st.QueueLen())
			maxCap = max(maxCap, cap(st.queue.buf))
			for _, j := range st.queue.buf[:st.queue.head] {
				if j != nil {
					t.Fatal("a popped slot still holds its job")
				}
			}
		})
	}
	e.RunUntil(20000)
	if st.QueueLen() < backlog-2 {
		t.Fatalf("backlog drained to %d; the test needs it persistent", st.QueueLen())
	}
	if maxCap > 4*maxLen {
		t.Errorf("queue buffer reached capacity %d for at most %d waiting jobs", maxCap, maxLen)
	}
}

// TestStationCycleAllocatesNothing: once a station and its engine have
// seen their deepest backlog, an enqueue→serve→finish cycle allocates
// nothing — no event, closure or queue growth per job — batched or not.
func TestStationCycleAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name   string
		max    int
		window Time
	}{
		{"unbatched", 1, 0},
		{"batched", 2, 0.25},
	} {
		e := NewEngine()
		st := NewStation(e)
		st.SetBatching(c.max, c.window)
		served := 0
		jobs := make([]*Job, 3)
		for i := range jobs {
			jobs[i] = &Job{
				Service: func() Time { return 0.5 },
				Done:    func() { served++ },
			}
		}
		cycle := func() {
			for _, j := range jobs {
				st.Enqueue(j)
			}
			e.Run()
		}
		cycle()
		if got := testing.AllocsPerRun(100, cycle); got != 0 {
			t.Errorf("%s: station cycle allocates %v times, want 0", c.name, got)
		}
		if served != 3*102 {
			t.Errorf("%s: served %d jobs, want %d", c.name, served, 3*102)
		}
	}
}

// batchStation returns a station batching up to max jobs with the given
// window.
func batchStation(e *Engine, max int, window Time) *Station {
	st := NewStation(e)
	st.SetBatching(max, window)
	return st
}

// sizedJob returns a job that serves for d and, when done, appends the
// size of the batch it was served in to sizes.
func sizedJob(st *Station, d Time, sizes *[]int) *Job {
	n := 0
	return &Job{
		Service: func() Time { n = st.InService(); return d },
		Done:    func() { *sizes = append(*sizes, n) },
	}
}

func TestStationBatchCoalesces(t *testing.T) {
	e := NewEngine()
	st := batchStation(e, 4, 0.5)
	var sizes []int
	for i := 0; i < 4; i++ {
		st.Enqueue(sizedJob(st, 1, &sizes))
	}
	e.Run()
	if len(sizes) != 4 {
		t.Fatalf("completions = %d, want 4", len(sizes))
	}
	for _, n := range sizes {
		if n != 4 {
			t.Fatalf("batch sizes = %v, want all 4 (full batch fires immediately)", sizes)
		}
	}
	if e.Now() != 1 {
		t.Errorf("full batch served at %v, want immediately (1s service)", e.Now())
	}
}

func TestStationBatchWindowExpiry(t *testing.T) {
	e := NewEngine()
	st := batchStation(e, 8, 0.5)
	var sizes []int
	st.Enqueue(sizedJob(st, 1, &sizes))
	e.Run()
	// Lone job waits out the 0.5s window then serves for 1s.
	if len(sizes) != 1 || sizes[0] != 1 {
		t.Errorf("batch sizes = %v, want [1]", sizes)
	}
	if math.Abs(e.Now()-1.5) > 1e-12 {
		t.Errorf("done at %v, want 1.5", e.Now())
	}
}

func TestStationBatchZeroWindowServesImmediately(t *testing.T) {
	e := NewEngine()
	st := batchStation(e, 8, 0)
	var sizes []int
	st.Enqueue(sizedJob(st, 1, &sizes))
	e.Run()
	if e.Now() != 1 || len(sizes) != 1 || sizes[0] != 1 {
		t.Errorf("zero-window service: now=%v sizes=%v", e.Now(), sizes)
	}
}

func TestStationBatchOverflowSplitsBatches(t *testing.T) {
	e := NewEngine()
	st := batchStation(e, 2, 0)
	var sizes []int
	for i := 0; i < 5; i++ {
		st.Enqueue(sizedJob(st, 1, &sizes))
	}
	e.Run()
	// 5 jobs, max 2, no window: the first serves alone as it arrives,
	// the other four in pairs behind it.
	if want := []int{1, 2, 2, 2, 2}; !slices.Equal(sizes, want) {
		t.Errorf("batch sizes = %v, want %v", sizes, want)
	}
	if e.Now() != 3 {
		t.Errorf("makespan = %v, want 3", e.Now())
	}
}

func TestStationBatchTimerRearms(t *testing.T) {
	e := NewEngine()
	st := batchStation(e, 4, 0.5)
	var firstDone, secondDone Time
	st.Enqueue(&Job{Service: func() Time { return 1 }, Done: func() { firstDone = e.Now() }})
	// Second job arrives long after the first batch completed: the
	// window timer must re-arm.
	e.At(5, func() {
		st.Enqueue(&Job{Service: func() Time { return 1 }, Done: func() { secondDone = e.Now() }})
	})
	e.Run()
	if math.Abs(firstDone-1.5) > 1e-12 {
		t.Errorf("first done at %v, want 1.5", firstDone)
	}
	if math.Abs(secondDone-6.5) > 1e-12 {
		t.Errorf("second done at %v, want 6.5 (window re-armed)", secondDone)
	}
}

func TestStationBatchPauseResume(t *testing.T) {
	e := NewEngine()
	st := batchStation(e, 2, 0)
	st.Pause()
	var done Time = -1
	st.Enqueue(&Job{Service: func() Time { return 1 }, Done: func() { done = e.Now() }})
	e.At(3, func() { st.Resume() })
	e.Run()
	if done != 4 {
		t.Errorf("done at %v, want 4 (paused until 3)", done)
	}
}

// TestStationBatchLongestService: a batch holds the server for its
// longest job's Service, and every job in it completes then.
func TestStationBatchLongestService(t *testing.T) {
	e := NewEngine()
	// A short window lets the two back-to-back jobs coalesce.
	st := batchStation(e, 2, 0.1)
	var sizes []int
	var doneAt []Time
	for _, d := range []Time{1, 2} {
		j := sizedJob(st, d, &sizes)
		done := j.Done
		j.Done = func() { done(); doneAt = append(doneAt, e.Now()) }
		st.Enqueue(j)
	}
	e.Run()
	if !slices.Equal(sizes, []int{2, 2}) || !slices.Equal(doneAt, []Time{2, 2}) {
		t.Errorf("sizes=%v done at %v, want one batch of 2 done at 2", sizes, doneAt)
	}
}

// TestStationBatchStartsFromDone: a Done callback that enqueues a full
// batch starts it at once, and the rest of the completing batch still
// completes, each job once.
func TestStationBatchStartsFromDone(t *testing.T) {
	e := NewEngine()
	st := batchStation(e, 2, 1)
	var order []string
	job := func(name string) *Job {
		return &Job{Service: func() Time { return 1 }, Done: func() { order = append(order, name) }}
	}
	a, b := job("a"), job("b")
	a.Done = func() {
		order = append(order, "a")
		st.Enqueue(job("c"))
		st.Enqueue(job("d"))
		if st.InService() != 2 {
			t.Errorf("batch of c and d did not start from a's Done")
		}
	}
	st.Enqueue(a)
	st.Enqueue(b)
	e.Run()
	if want := []string{"a", "b", "c", "d"}; !slices.Equal(order, want) {
		t.Errorf("completion order = %v, want %v", order, want)
	}
	if e.Now() != 2 {
		t.Errorf("now=%v, want 2", e.Now())
	}
}

func TestStationBatchPanics(t *testing.T) {
	e := NewEngine()
	busy := NewStation(e)
	busy.Enqueue(&Job{Service: func() Time { return 1 }})
	for name, f := range map[string]func(){
		"maxBatch": func() { NewStation(e).SetBatching(0, 0) },
		"busy":     func() { busy.SetBatching(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
