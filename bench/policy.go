package main

import (
	"time"

	"fluidfaas/internal/scheduler"
)

// timedPolicy decorates a scheduler.Policy: every method delegates to
// the wrapped policy, and PlaceBatch is timed from outside. The platform
// only calls the interface, so the decorated run is the same simulation
// (the benchmark checks this on every traced rep).
type timedPolicy struct {
	scheduler.Policy

	calls     []time.Duration
	requested int
	placed    int
	explored  int // ESG A* states popped, summed over calls
}

func (t *timedPolicy) PlaceBatch(reqs []scheduler.Req, nodes []scheduler.NodeFree) []scheduler.Placement {
	start := time.Now()
	out := t.Policy.PlaceBatch(reqs, nodes)
	t.calls = append(t.calls, time.Since(start))
	t.requested += len(reqs)
	t.placed += len(out)
	if e, ok := t.Policy.(*scheduler.ESG); ok {
		t.explored += e.Explored
	}
	return out
}

func (t *timedPolicy) total() time.Duration {
	var sum time.Duration
	for _, d := range t.calls {
		sum += d
	}
	return sum
}
