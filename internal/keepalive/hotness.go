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
func (t *Tracker) Begin(now float64) {
	if now > t.lastUse {
		t.lastUse = now
	}
	if n := len(t.intervals); n > 0 && t.intervals[n-1][1] < 0 {
		return // already serving
	}
	t.intervals = append(t.intervals, [2]float64{now, -1})
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

// LastUse returns the time of the most recent activity.
func (t *Tracker) LastUse() float64 { return t.lastUse }

// Utilization returns the busy fraction of the window ending at now.
func (t *Tracker) Utilization(now float64) float64 {
	lo := now - HotnessWindow
	if lo < 0 {
		lo = 0
	}
	span := now - lo
	if span <= 0 {
		return 0
	}
	busy := 0.0
	kept := t.intervals[:0]
	for _, iv := range t.intervals {
		start, end := iv[0], iv[1]
		open := end < 0
		if open {
			end = now
		}
		if end <= lo && !open {
			continue // aged out; prune
		}
		kept = append(kept, iv)
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
