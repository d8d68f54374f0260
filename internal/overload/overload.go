// Package overload holds the configuration of the platform's SLO-aware
// admission control. The platform owns the queue and instance state
// and applies the admission decision.
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
	// Deprecated: ignored; deleted when bench/ next changes.
	FairQueue bool

	// Brownout once enabled a degradation ladder driven by node
	// pressure: shorter keep-alive, pipeline contraction, priority
	// shedding and swap relief. With admission on, pressure never
	// reached its first rung, so it was removed.
	//
	// Deprecated: ignored; deleted when bench/ next changes.
	Brownout bool
}

// AdmissionSlack scales the admission completion estimate before it
// is compared with the deadline: >1 would reject more aggressively, <1
// would give the estimate the benefit of the doubt.
const AdmissionSlack float64 = 1

// Enabled reports whether admission is on; the deprecated fields do
// not count.
func (c Config) Enabled() bool { return c.Admission }
