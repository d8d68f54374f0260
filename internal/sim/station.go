package sim

// Station is a single-server FIFO queueing station driven by an Engine.
// Jobs enter via Enqueue; the station serves one job at a time, holding
// it for the service time returned by the job's Service callback, then
// invokes Done. Stations are the building block for both monolithic
// instances (one station) and pipelines (a chain of stations).
type Station struct {
	eng  *Engine
	name string

	// queue[head:] is the FIFO. Popping advances head and nils the slot;
	// the buffer is reused rather than resliced, so a long-lived station
	// stops allocating once it has seen its deepest backlog.
	queue []*Job
	head  int
	busy  bool
	// cur is the job in service. finish is the station's completion
	// event, re-armed for every job with finishFn: a single server has
	// at most one job in service, so one event serves them all.
	cur      *Job
	finish   Event
	finishFn func()

	// Paused stations accept jobs but do not start service; used while a
	// time-sharing instance's model is being (re)loaded onto a slice.
	paused bool

	busySince Time
	busyTotal Time
	served    uint64
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
	// EnqueuedAt records when the job entered the current station's queue.
	EnqueuedAt Time
	// StartedAt records when service began at the current station.
	StartedAt Time
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
func NewStation(eng *Engine, name string) *Station {
	s := &Station{eng: eng, name: name}
	// One completion callback per station, not per job: the station is a
	// single server, so the job it belongs to is always s.cur.
	s.finishFn = s.complete
	return s
}

// Name returns the station's diagnostic name.
func (s *Station) Name() string { return s.name }

// QueueLen returns the number of jobs waiting (excluding the one in
// service).
func (s *Station) QueueLen() int { return len(s.queue) - s.head }

// Busy reports whether a job is currently in service.
func (s *Station) Busy() bool { return s.busy }

// Served returns the number of jobs completed.
func (s *Station) Served() uint64 { return s.served }

// BusyTime returns the cumulative time spent serving jobs, up to now.
func (s *Station) BusyTime() Time {
	t := s.busyTotal
	if s.busy {
		t += s.eng.Now() - s.busySince
	}
	return t
}

// Utilization returns BusyTime divided by elapsed time since start of the
// simulation (or zero at time zero).
func (s *Station) Utilization() float64 {
	now := s.eng.Now()
	if now == 0 {
		return 0
	}
	return s.BusyTime() / now
}

// Enqueue adds a job; service starts immediately if the station is idle
// and not paused.
func (s *Station) Enqueue(j *Job) {
	j.EnqueuedAt = s.eng.Now()
	if n := len(s.queue); n == cap(s.queue) && s.head >= n/2 && s.head > 0 {
		// Full, and at least half of it popped: slide the live jobs
		// down instead of growing. Compacting only then keeps each
		// move paid for by the pops before it.
		live := copy(s.queue, s.queue[s.head:])
		clear(s.queue[live:])
		s.queue, s.head = s.queue[:live], 0
	}
	s.queue = append(s.queue, j)
	s.maybeStart()
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
	s.maybeStart()
}

// Paused reports whether the station is paused.
func (s *Station) Paused() bool { return s.paused }

func (s *Station) maybeStart() {
	if s.busy || s.paused || s.head == len(s.queue) {
		return
	}
	j := s.queue[s.head]
	s.queue[s.head] = nil
	if s.head++; s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
	s.busy = true
	s.cur = j
	s.busySince = s.eng.Now()
	j.StartedAt = s.eng.Now()
	d := j.service()
	if d < 0 {
		d = 0
	}
	s.eng.Rearm(&s.finish, s.eng.Now()+d, s.finishFn)
}

func (s *Station) complete() {
	j := s.cur
	s.cur = nil
	s.busy = false
	s.busyTotal += s.eng.Now() - s.busySince
	s.served++
	j.done()
	s.maybeStart()
}
