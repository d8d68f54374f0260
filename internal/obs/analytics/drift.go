package analytics

import (
	"fmt"
	"sort"
)

// Profile-drift detection: the invoker's CV-ranked pipeline
// construction and the routing latency estimates both trust the static
// per-slice-type profiles declared in the FFS DAG (Table 2). The drift
// tracker compares every observed stage execution against the declared
// profile it was planned with and maintains a per-(model-component,
// slice-type) EWMA of the observed/declared ratio. When the smoothed
// ratio diverges past the threshold it flags the key and emits a drift
// event — it never feeds back into scheduling (closing that loop is
// future work); it only tells the operator the planning model and the
// hardware no longer agree.

// DriftKey identifies one drift series: a function's pipeline stage
// (stage -1 = the monolithic whole-model deployment) on a slice type.
type DriftKey struct {
	Func  string `json:"func"`
	Stage int    `json:"stage"`
	Slice string `json:"slice"`
}

// String renders the key like "app0/stage1@2g.20gb" (monolithic stages
// render as "app0/mono@4g.40gb").
func (k DriftKey) String() string {
	if k.Stage < 0 {
		return fmt.Sprintf("%s/mono@%s", k.Func, k.Slice)
	}
	return fmt.Sprintf("%s/stage%d@%s", k.Func, k.Stage, k.Slice)
}

// DriftEntry is one key's drift state.
type DriftEntry struct {
	Key DriftKey `json:"key"`
	// Ratio is the EWMA of observed/declared execution time: 1 means
	// the profile still matches reality.
	Ratio float64 `json:"ratio"`
	// LastObserved and Declared are the newest sample's durations.
	LastObserved float64 `json:"lastObserved"`
	Declared     float64 `json:"declared"`
	Samples      int     `json:"samples"`
	// Flagged marks keys currently past the divergence threshold.
	Flagged bool `json:"flagged"`
}

// DriftEvent is published when a key's EWMA ratio crosses the
// divergence threshold (in either direction).
type DriftEvent struct {
	Time  float64  `json:"time"`
	Key   DriftKey `json:"key"`
	Ratio float64  `json:"ratio"`
	// Recovered marks the ratio returning inside the threshold after a
	// flagged stretch.
	Recovered bool `json:"recovered"`
}

// Drift-tracker tuning: the EWMA smoothing weight, the divergence
// threshold on |EWMA-1|, and the observations a key needs before it can
// flag (a fresh EWMA is noise).
const (
	driftAlpha      float64 = 0.2
	driftThreshold  float64 = 0.25
	driftMinSamples int     = 8
)

// DriftTracker maintains EWMA drift ratios per key. The zero value is
// unusable; build with NewDriftTracker.
type DriftTracker struct {
	states map[DriftKey]*DriftEntry
}

// NewDriftTracker returns an empty tracker.
func NewDriftTracker() *DriftTracker {
	return &DriftTracker{states: map[DriftKey]*DriftEntry{}}
}

// Observe folds one stage execution into the key's EWMA. It returns a
// DriftEvent when this sample pushes the smoothed ratio across the
// threshold (or back inside it), nil otherwise.
func (d *DriftTracker) Observe(t float64, k DriftKey, observed, declared float64) *DriftEvent {
	if declared <= 0 {
		return nil
	}
	ratio := observed / declared
	st, ok := d.states[k]
	if !ok {
		st = &DriftEntry{Key: k, Ratio: ratio}
		d.states[k] = st
	} else {
		st.Ratio = driftAlpha*ratio + (1-driftAlpha)*st.Ratio
	}
	st.LastObserved = observed
	st.Declared = declared
	st.Samples++
	if st.Samples < driftMinSamples {
		return nil
	}
	diverged := st.Ratio > 1+driftThreshold || st.Ratio < 1-driftThreshold
	if diverged == st.Flagged {
		return nil
	}
	st.Flagged = diverged
	return &DriftEvent{Time: t, Key: k, Ratio: st.Ratio, Recovered: !diverged}
}

// Entries returns every key's drift state, sorted by key for
// deterministic reports.
func (d *DriftTracker) Entries() []DriftEntry {
	out := make([]DriftEntry, 0, len(d.states))
	for _, st := range d.states {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		return a.Slice < b.Slice
	})
	return out
}
