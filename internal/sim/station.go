package sim

// Station is a single-server FIFO queueing station driven by an Engine.
// Jobs enter via Enqueue; the station serves one job at a time, holding
// it for the service time returned by the job's Service callback, then
// invokes Done. Stations are the building block for both monolithic
// instances (one station) and pipelines (a chain of stations).
//
// After SetBatching the server takes up to max jobs at once instead:
// a batch starts when max jobs wait, or once the batching window has
// passed since the first job waited on the idle server, and it lasts
// as long as the longest Service among its jobs. DNN inference serves
// batches far more efficiently than single requests, so batching-aware
// serving systems (e.g. INFless) trade a small queueing delay for
// throughput.
type Station struct {
	eng *Engine

	// queue is the FIFO.
	queue Queue[*Job]
	// cur is the job in service. finish is the station's completion
	// event, re-armed for every job with finishFn: a single server has
	// at most one job in service, so one event serves them all.
	cur      *Job
	finish   Event
	finishFn func()
	// batch is nil unless SetBatching turned batching on.
	batch *batching

	busy bool
	// Paused stations accept jobs but do not start service; used while a
	// time-sharing instance's model is being (re)loaded onto a slice.
	paused bool
}

// batching is a batched station's state (see SetBatching).
type batching struct {
	max    int
	window Time
	// jobs is the batch in service, in FIFO order. complete swaps it
	// with spare before running the Done callbacks, so a batch that
	// starts from one of them fills the other buffer.
	jobs, spare []*Job
	// timer ends the window; it is pending only while jobs wait on an
	// idle, unpaused server.
	timer   Event
	timerFn func()
}

// Job is a unit of work flowing through stations.
type Job struct {
	// Service returns how long the station works on this job.
	Service func() Time
	// Done runs when service completes.
	Done func()
	// Runner, when set, supplies both callbacks from one value and takes
	// precedence over the Service/Done fields. A caller that embeds Job
	// in its own per-job state and points Runner back at it pays one
	// allocation per job instead of one per captured closure variable —
	// this is the platform's hot path for pipeline stages.
	Runner Runner
}

// Runner is the allocation-lean form of a job's callbacks (see
// Job.Runner).
type Runner interface {
	// Service returns how long the station works on this job.
	Service() Time
	// Done runs when service completes.
	Done()
}

func (j *Job) service() Time {
	if j.Runner != nil {
		return j.Runner.Service()
	}
	return j.Service()
}

func (j *Job) done() {
	if j.Runner != nil {
		j.Runner.Done()
		return
	}
	if j.Done != nil {
		j.Done()
	}
}

// NewStation returns an idle station bound to eng.
func NewStation(eng *Engine) *Station {
	s := &Station{eng: eng}
	// One completion callback per station, not per job: the station is a
	// single server, so the job it belongs to is always s.cur.
	s.finishFn = s.complete
	return s
}

// SetBatching lets the station serve up to max jobs as one batch. A
// batch starts when max jobs wait, or once window has passed since the
// first job waited on the idle server; window <= 0 serves whatever
// waits as soon as the server idles. max 1 leaves the station
// unbatched. It panics if max < 1 or a job is in service.
func (s *Station) SetBatching(max int, window Time) {
	if max < 1 {
		panic("sim: batch size must be >= 1")
	}
	if s.busy {
		panic("sim: SetBatching on a busy station")
	}
	if max == 1 {
		s.batch = nil
		return
	}
	b := &batching{max: max, window: window}
	b.timerFn = func() { s.start(true) }
	s.batch = b
}

// QueueLen returns the number of jobs waiting (excluding the one in
// service).
func (s *Station) QueueLen() int { return s.queue.Len() }

// Busy reports whether a job is currently in service.
func (s *Station) Busy() bool { return s.busy }

// InService returns the number of jobs in service: 0 when idle, the
// batch size on a busy batched station, 1 on a busy unbatched one. A
// job's Service callback may read it to learn its batch's size.
func (s *Station) InService() int {
	switch {
	case !s.busy:
		return 0
	case s.batch != nil:
		return len(s.batch.jobs)
	}
	return 1
}

// Enqueue adds a job; service starts immediately if the station is idle
// and not paused.
func (s *Station) Enqueue(j *Job) {
	s.queue.Push(j)
	s.start(false)
}

// Pause stops the station from starting new jobs. The job currently in
// service (if any) completes normally.
func (s *Station) Pause() { s.paused = true }

// Resume lets the station start jobs again.
func (s *Station) Resume() {
	if !s.paused {
		return
	}
	s.paused = false
	s.start(false)
}

// start begins service if the server is free and jobs wait. A batched
// station starts a batch only once it is full, expired says its window
// has passed, or it has no window; otherwise it arms the window timer.
func (s *Station) start(expired bool) {
	if s.busy || s.paused || s.queue.Len() == 0 {
		return
	}
	b := s.batch
	if b == nil {
		j := s.queue.Pop()
		s.busy = true
		s.cur = j
		s.serve(j.service())
		return
	}
	n := s.QueueLen()
	if n < b.max && b.window > 0 && !expired {
		if !s.eng.queued(&b.timer) {
			s.eng.Rearm(&b.timer, s.eng.Now()+b.window, b.timerFn)
		}
		return
	}
	s.eng.Cancel(&b.timer)
	for range min(n, b.max) {
		b.jobs = append(b.jobs, s.queue.Pop())
	}
	s.busy = true
	var d Time
	for _, j := range b.jobs {
		d = max(d, j.service())
	}
	s.serve(d)
}

// serve holds the server for d (clamped at zero), then completes.
func (s *Station) serve(d Time) {
	if d < 0 {
		d = 0
	}
	s.eng.Rearm(&s.finish, s.eng.Now()+d, s.finishFn)
}

func (s *Station) complete() {
	s.busy = false
	if b := s.batch; b != nil {
		jobs := b.jobs
		b.jobs, b.spare = b.spare[:0], jobs
		for i, j := range jobs {
			jobs[i] = nil
			j.done()
		}
	} else {
		j := s.cur
		s.cur = nil
		j.done()
	}
	s.start(false)
}
