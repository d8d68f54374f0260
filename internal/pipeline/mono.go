package pipeline

import (
	"math"

	"fluidfaas/internal/dag"
	"fluidfaas/internal/mig"
)

// MonoEntry is a DAG's monolithic deployment on one slice profile.
type MonoEntry struct {
	// Plan is the single-stage plan (zero when !OK). It is shared by
	// every reader of the table and must be treated as immutable.
	Plan Plan
	// OK reports that the DAG runs monolithically on the profile.
	OK bool
	// Cost is the GPC-seconds per request, GPCs × Plan.Latency: the
	// baselines' efficiency objective.
	Cost float64
}

// Fits reports whether the monolithic deployment exists and meets slo
// (slo ≤ 0 means unconstrained).
func (e *MonoEntry) Fits(slo float64) bool {
	return e.OK && (slo <= 0 || e.Plan.Latency <= slo)
}

// MonoTable holds a DAG's monolithic deployment per slice profile,
// indexed by mig.SliceType. The baselines' placement depends only on
// (DAG, profile), so one table answers every request × free slice.
type MonoTable [mig.NumSliceTypes]MonoEntry

// NewMonoTable builds each entry with Monolithic, so latencies and costs
// are exactly what a direct call would return.
func NewMonoTable(d *dag.DAG) *MonoTable {
	var tab MonoTable
	for _, t := range mig.SliceTypes {
		plan, err := Monolithic(d, t)
		if err != nil {
			continue
		}
		tab[t] = MonoEntry{Plan: plan, OK: true, Cost: float64(t.GPCs()) * plan.Latency}
	}
	return &tab
}

// Fastest returns the lowest monolithic latency over all profiles, +Inf
// when the DAG runs monolithically nowhere.
func (tab *MonoTable) Fastest() float64 {
	lat := math.Inf(1)
	for i := range tab {
		if e := &tab[i]; e.OK && e.Plan.Latency < lat {
			lat = e.Plan.Latency
		}
	}
	return lat
}
