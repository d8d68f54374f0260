// Package overload implements the platform's overload-control
// primitives: the configuration of SLO-aware admission control and a
// brownout ladder that maps a node-pressure signal onto progressively
// stronger degradation levels with hysteresis. The package holds the
// pure decision logic; the platform owns the queue/instance state and
// applies the decisions.
package overload

// Config enables the overload-control features. The zero value
// disables all of them, leaving the platform's behaviour untouched.
type Config struct {
	// Admission enables SLO-aware admission control at routing: a
	// request whose estimated completion time (queue depth, load state
	// and exec profile) exceeds its deadline is rejected immediately
	// (fast-fail) instead of queued to die of a client timeout.
	Admission bool

	// FairQueue once replaced a shared slice's deadline-ordered queue
	// with per-function fair queues. With admission on it never chose
	// between two backlogged flows, so it was removed; a shared slice
	// always serves in deadline order.
	//
	// Deprecated: ignored; deleted when bench/ next changes (ROADMAP item 3).
	FairQueue bool

	// Brownout enables the degradation ladder driven by the platform's
	// node-pressure signal.
	Brownout bool
}

// AdmissionSlack scales the admission completion estimate before it
// is compared with the deadline: >1 would reject more aggressively, <1
// would give the estimate the benefit of the doubt.
const AdmissionSlack float64 = 1

// SwapHeadroom is the host-pool occupancy ceiling below which a
// brownout at LevelShed prefers swapping an idle model out of GPU
// memory over shedding traffic.
const SwapHeadroom float64 = 0.95

// The brownout ladder's tuning.
const (
	// exitMargin is subtracted from a level's entry threshold to form
	// its exit threshold, the hysteresis band.
	exitMargin float64 = 0.25
	// dwell is the minimum sojourn (s) at a level before the ladder may
	// de-escalate.
	dwell float64 = 5
)

// enter holds the pressure thresholds entering Conserve, Degrade and
// Shed; pressure 1.0 means the backlog exactly fills the admission
// capacity.
var enter = [3]float64{1.2, 2.0, 3.0}

// Enabled reports whether admission or brownout is on; the deprecated
// fair-queue field does not count.
func (c Config) Enabled() bool { return c.Admission || c.Brownout }

// HedgingAllowed reports whether hedged retries may launch at ladder
// level l. Hedging spends duplicate work to buy tail latency, which is
// exactly wrong once the ladder passes the conserve rung — above it the
// cluster needs every slice-second for primary work, so hedging shuts
// off before shedding or contraction start.
func (c Config) HedgingAllowed(l Level) bool { return l <= LevelConserve }

// PreferSwapRelief reports whether a shed-level brownout should try a
// swap demotion (freeing GPU memory by writing an idle model back to
// the host pool) before rejecting traffic: only at LevelShed, and only
// while the pool still has headroom to take the copy.
func (c Config) PreferSwapRelief(level Level, poolOccupancy float64) bool {
	return level >= LevelShed && poolOccupancy < SwapHeadroom
}

// Level is a rung of the brownout ladder.
type Level int

// The degradation ladder, mildest first.
const (
	// LevelNormal: no degradation.
	LevelNormal Level = iota
	// LevelConserve: keep-alive windows shorten so idle capacity
	// returns to the free pool sooner.
	LevelConserve
	// LevelDegrade: cool exclusive instances demote early and oversized
	// pipelines contract to fewer/smaller slices.
	LevelDegrade
	// LevelShed: traffic of the lowest-priority functions is rejected
	// at arrival.
	LevelShed
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelNormal:
		return "normal"
	case LevelConserve:
		return "conserve"
	case LevelDegrade:
		return "degrade"
	case LevelShed:
		return "shed"
	}
	return "Level(?)"
}

// Ladder is the brownout state machine: escalation is immediate (a
// pressure spike must be answered now), de-escalation requires the
// pressure to fall below the hysteresis band and the level to have
// been held for the dwell time — so the ladder cannot flap on a noisy
// signal.
type Ladder struct {
	level Level
	since float64
}

// NewLadder builds a ladder at LevelNormal.
func NewLadder() *Ladder { return &Ladder{} }

// Level returns the current rung.
func (l *Ladder) Level() Level { return l.level }

// target maps a pressure value to the rung it calls for.
func (l *Ladder) target(pressure float64) Level {
	t := LevelNormal
	for i, threshold := range enter {
		if pressure >= threshold {
			t = Level(i + 1)
		}
	}
	return t
}

// Observe feeds one pressure sample; it returns the transition taken,
// if any. One call de-escalates at most one rung.
func (l *Ladder) Observe(now, pressure float64) (from, to Level, changed bool) {
	from = l.level
	if t := l.target(pressure); t > l.level {
		l.level = t
		l.since = now
		return from, l.level, true
	}
	if l.level > LevelNormal && now-l.since >= dwell {
		exit := enter[l.level-1] - exitMargin
		if pressure < exit {
			l.level--
			l.since = now
			return from, l.level, true
		}
	}
	return from, l.level, false
}
