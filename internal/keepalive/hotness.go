package keepalive

// HotnessWindow is the length (seconds) of the sliding window over which
// instance utilisation is assessed for state transitions.
const HotnessWindow = 30.0

// Tracker measures an instance's recent utilisation: the fraction of the
// HotnessWindow its slice spent serving the instance's requests. The
// FFS invoker continuously assesses this to decide promotions to
// exclusive-hot and demotions to time sharing (§5.3).
type Tracker struct {
	// busy intervals, pruned to the window; open interval uses end < 0.
	intervals [][2]float64
	lastUse   float64
}

// NewTracker returns a tracker with no recorded activity.
func NewTracker() *Tracker { return &Tracker{} }

// Begin records that the instance started serving at time now. Busy
// intervals may legitimately begin in the past (completion callbacks
// back-date the service start), but lastUse never moves backwards past
// activity a later Touch already recorded.
//
// Before the buffer grows, Begin drops the intervals Utilization(now)
// would prune. Callers pass Begin the simulation clock or an earlier
// time, and Utilization the clock, so no later Utilization call would
// have counted them. Without this a tracker nobody asks for its
// utilisation grows one interval per busy period.
func (t *Tracker) Begin(now float64) {
	if now > t.lastUse {
		t.lastUse = now
	}
	n := len(t.intervals)
	if n > 0 && t.intervals[n-1][1] < 0 {
		return // already serving
	}
	if n == cap(t.intervals) {
		lo := windowStart(now)
		kept := t.intervals[:0]
		for _, iv := range t.intervals {
			if !agedOut(iv, lo) {
				kept = append(kept, iv)
			}
		}
		t.intervals = kept
	}
	t.intervals = append(t.intervals, [2]float64{now, -1})
}

// windowStart is where the hotness window ending at now begins.
func windowStart(now float64) float64 {
	return max(now-HotnessWindow, 0)
}

// agedOut reports whether iv closed at or before lo, so that no window
// starting at lo or later overlaps it.
func agedOut(iv [2]float64, lo float64) bool {
	return iv[1] >= 0 && iv[1] <= lo
}

// End records that the instance stopped serving at time now. An End
// with no open interval counts as plain activity (Touch) rather than
// being dropped, and an End before the interval's start clamps to a
// zero-length interval; lastUse is monotonic in both cases.
func (t *Tracker) End(now float64) {
	if now > t.lastUse {
		t.lastUse = now
	}
	if n := len(t.intervals); n > 0 && t.intervals[n-1][1] < 0 {
		end := now
		if end < t.intervals[n-1][0] {
			end = t.intervals[n-1][0]
		}
		t.intervals[n-1][1] = end
	}
}

// Touch records request activity without busy time (e.g. arrival).
func (t *Tracker) Touch(now float64) {
	if now > t.lastUse {
		t.lastUse = now
	}
}

// Utilization returns the busy fraction of the window ending at now.
func (t *Tracker) Utilization(now float64) float64 {
	lo := windowStart(now)
	span := now - lo
	if span <= 0 {
		return 0
	}
	busy := 0.0
	kept := t.intervals[:0]
	for _, iv := range t.intervals {
		if agedOut(iv, lo) {
			continue // prune
		}
		kept = append(kept, iv)
		start, end := iv[0], iv[1]
		if end < 0 {
			end = now // open
		}
		if start < lo {
			start = lo
		}
		if end > now {
			end = now
		}
		if end > start {
			busy += end - start
		}
	}
	t.intervals = kept
	u := busy / span
	if u > 1 {
		u = 1
	}
	return u
}

// IsHot reports whether utilisation at now exceeds the exclusive-hot
// threshold.
func (t *Tracker) IsHot(now float64) bool {
	return t.Utilization(now) > HotUtilization
}

// IdleFor returns how long the instance has been without activity.
func (t *Tracker) IdleFor(now float64) float64 {
	d := now - t.lastUse
	if d < 0 {
		return 0
	}
	return d
}

// Load cost model. Warm reloads copy model state host-to-device over
// PCIe; cold starts additionally pay environment setup and a remote
// fetch (§5.3: retrieving from CPU "reduc[es] loading time compared to
// fetching the model from remote storage").
const (
	// PCIeBandwidthGBps is the effective host-to-device copy bandwidth.
	PCIeBandwidthGBps = 12.0
	// ColdStartBase covers container/runtime initialisation.
	ColdStartBase = 5.0
	// RemoteFetchGBps is the effective remote-storage fetch bandwidth
	// (registry or cached object store over the datacenter network).
	RemoteFetchGBps = 5.0
)

// WarmLoadTime returns the host-to-device reload time for memGB of model
// state.
func WarmLoadTime(memGB float64) float64 {
	if memGB < 0 {
		memGB = 0
	}
	return memGB / PCIeBandwidthGBps
}

// ColdStartTime returns the full cold-start time for memGB of model
// state: setup, remote fetch, and the device copy.
func ColdStartTime(memGB float64) float64 {
	if memGB < 0 {
		memGB = 0
	}
	return ColdStartBase + memGB/RemoteFetchGBps + memGB/PCIeBandwidthGBps
}

// SwapInTime returns the time to restore a model from the host pool to
// device memory: a pure PCIe host-to-device copy, identical in cost to
// a warm reload (the pool copy is exactly the warm copy, managed).
func SwapInTime(memGB float64) float64 { return WarmLoadTime(memGB) }
