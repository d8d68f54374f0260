package sim

// BatchStation is a single-server station that coalesces queued jobs
// into batches: service starts when the batch is full or when the
// oldest job has waited out the batching window. DNN inference serves
// batches far more efficiently than single requests, so batching-aware
// serving systems (e.g. INFless) trade a small queueing delay for
// throughput.
type BatchStation struct {
	eng      *Engine
	name     string
	maxBatch int
	window   Time
	// service returns the batch service time for n jobs.
	service func(n int) Time

	// OnStart and OnEnd, when set, run at batch start/completion (e.g.
	// to mark a MIG slice active).
	OnStart func(n int)
	OnEnd   func(n int)

	queue  []func(n int)
	busy   bool
	paused bool
	timer  *Event

	served  uint64
	batches uint64
	busyT   Time
}

// NewBatchStation returns an idle batch station. maxBatch must be >= 1;
// window <= 0 serves whatever is queued as soon as the server idles.
func NewBatchStation(eng *Engine, name string, maxBatch int, window Time, service func(n int) Time) *BatchStation {
	if maxBatch < 1 {
		panic("sim: maxBatch must be >= 1")
	}
	if service == nil {
		panic("sim: nil batch service function")
	}
	return &BatchStation{
		eng: eng, name: name, maxBatch: maxBatch, window: window, service: service,
	}
}

// Name returns the diagnostic name.
func (s *BatchStation) Name() string { return s.name }

// QueueLen returns jobs waiting for a batch.
func (s *BatchStation) QueueLen() int { return len(s.queue) }

// Busy reports whether a batch is in service.
func (s *BatchStation) Busy() bool { return s.busy }

// Served returns jobs completed.
func (s *BatchStation) Served() uint64 { return s.served }

// Batches returns batches completed.
func (s *BatchStation) Batches() uint64 { return s.batches }

// MeanBatch returns the average batch size so far.
func (s *BatchStation) MeanBatch() float64 {
	if s.batches == 0 {
		return 0
	}
	return float64(s.served) / float64(s.batches)
}

// BusyTime returns cumulative service time.
func (s *BatchStation) BusyTime() Time { return s.busyT }

// Pause stops new batches from starting.
func (s *BatchStation) Pause() { s.paused = true }

// Resume lets batches start again.
func (s *BatchStation) Resume() {
	if !s.paused {
		return
	}
	s.paused = false
	s.maybeStart(false)
}

// Enqueue adds a job; done runs at batch completion with the batch size.
func (s *BatchStation) Enqueue(done func(n int)) {
	s.queue = append(s.queue, done)
	s.maybeStart(false)
}

func (s *BatchStation) maybeStart(windowExpired bool) {
	if s.busy || s.paused || len(s.queue) == 0 {
		return
	}
	if len(s.queue) < s.maxBatch && s.window > 0 && !windowExpired {
		// Wait for more jobs, bounded by the batching window from now
		// (armed once per forming batch).
		if s.timer == nil {
			s.timer = s.eng.After(s.window, func() {
				s.timer = nil
				s.maybeStart(true)
			})
		}
		return
	}
	if s.timer != nil {
		s.eng.Cancel(s.timer)
		s.timer = nil
	}
	n := len(s.queue)
	if n > s.maxBatch {
		n = s.maxBatch
	}
	batch := s.queue[:n]
	s.queue = append([]func(n int){}, s.queue[n:]...)
	s.busy = true
	if s.OnStart != nil {
		s.OnStart(n)
	}
	d := s.service(n)
	if d < 0 {
		d = 0
	}
	s.eng.After(d, func() {
		s.busy = false
		s.busyT += d
		s.batches++
		s.served += uint64(n)
		if s.OnEnd != nil {
			s.OnEnd(n)
		}
		for _, done := range batch {
			done(n)
		}
		s.maybeStart(false)
	})
}
