package experiments

import (
	"reflect"
	"time"

	"fluidfaas/internal/metrics"
	"fluidfaas/internal/pipeline"
	"fluidfaas/internal/platform"
	"fluidfaas/internal/scheduler"
)

// PlannerResult is the planner fast-path study: the same medium
// FluidFaaS run with the plan cache on and off, reporting wall-clock
// simulator throughput, the cache's hit statistics, and — the contract
// that makes the cache safe to ship — whether the two runs were
// bit-identical.
type PlannerResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Identical is the behaviour-invariance verdict: request records,
	// lifecycle event sequences, utilisation timeline and platform
	// counters all equal across cache-on/off.
	Identical bool `json:"identical"`

	// Cache statistics of the cache-on run.
	Hits         uint64  `json:"hits"`
	Misses       uint64  `json:"misses"`
	Uncached     uint64  `json:"uncached"`
	QuickRejects uint64  `json:"quickRejects"`
	HitRate      float64 `json:"hitRate"`
	// WalkReduction is lookups over partition-list walks: how many
	// construction calls each walk now serves.
	WalkReduction float64 `json:"walkReduction"`

	// Wall-clock comparison (host seconds; same simulated workload, so
	// events executed is identical when Identical holds).
	Events               uint64  `json:"events"`
	CachedSeconds        float64 `json:"cachedSeconds"`
	UncachedSeconds      float64 `json:"uncachedSeconds"`
	CachedEventsPerSec   float64 `json:"cachedEventsPerSec"`
	UncachedEventsPerSec float64 `json:"uncachedEventsPerSec"`
	Speedup              float64 `json:"speedup"`
}

// RunPlanner runs the planner fast-path study on the medium workload.
func RunPlanner(cfg Config) PlannerResult {
	cfg = cfg.withDefaults()
	w := Medium

	type capture struct {
		recs  []metrics.RequestRecord
		exec  uint64
		stats pipeline.PlannerStats
	}
	run := func(disable bool) (SystemResult, capture, float64) {
		c := cfg
		c.DisablePlanCache = disable
		var cap capture
		c.OnPlatform = func(p *platform.Platform) {
			cap.recs = p.Collector().Records()
			cap.exec = p.Engine().Executed()
			cap.stats = p.PlannerStats()
		}
		start := time.Now()
		r := RunSystem(&scheduler.FluidFaaS{}, w, c)
		return r, cap, time.Since(start).Seconds()
	}
	on, capOn, wallOn := run(false)
	off, capOff, wallOff := run(true)

	st := capOn.stats
	res := PlannerResult{
		Workload: w.String(),
		Seed:     cfg.Seed,
		Identical: reflect.DeepEqual(capOn.recs, capOff.recs) &&
			capOn.exec == capOff.exec &&
			on.Launched == off.Launched &&
			on.Evictions == off.Evictions &&
			on.Migrations == off.Migrations &&
			reflect.DeepEqual(on.Events, off.Events) &&
			reflect.DeepEqual(on.UtilGPCs, off.UtilGPCs),
		Hits:            st.Hits,
		Misses:          st.Misses,
		Uncached:        st.Uncached,
		QuickRejects:    st.QuickRejects,
		HitRate:         st.HitRate(),
		Events:          capOn.exec,
		CachedSeconds:   wallOn,
		UncachedSeconds: wallOff,
	}
	if st.Walks() > 0 {
		res.WalkReduction = float64(st.Lookups()) / float64(st.Walks())
	}
	if wallOn > 0 {
		res.CachedEventsPerSec = float64(capOn.exec) / wallOn
	}
	if wallOff > 0 {
		res.UncachedEventsPerSec = float64(capOff.exec) / wallOff
	}
	if wallOn > 0 && wallOff > 0 {
		res.Speedup = wallOff / wallOn
	}
	return res
}

// PlannerTable renders the planner fast-path study.
func PlannerTable(r PlannerResult) Table {
	verdict := "IDENTICAL (bit-for-bit)"
	if !r.Identical {
		verdict = "DIVERGED — cache is not behaviour-invariant"
	}
	return Table{
		Title:  "Planner fast path: plan cache on vs off, " + r.Workload + " workload",
		Header: []string{"quantity", "value"},
		Rows: [][]string{
			{"cache-on/off outcome", verdict},
			{"cache hits", itoa(int(r.Hits))},
			{"cache misses (walks)", itoa(int(r.Misses))},
			{"uncached lookups (sig overflow)", itoa(int(r.Uncached))},
			{"quick-rejected partitions", itoa(int(r.QuickRejects))},
			{"hit rate", pct(r.HitRate)},
			{"construct walks saved", f1(r.WalkReduction) + "x"},
			{"events executed", itoa(int(r.Events))},
			{"cached wall (s) / events/s", f2(r.CachedSeconds) + " / " + f1(r.CachedEventsPerSec)},
			{"uncached wall (s) / events/s", f2(r.UncachedSeconds) + " / " + f1(r.UncachedEventsPerSec)},
			{"wall-clock speedup", f2(r.Speedup) + "x"},
		},
	}
}
