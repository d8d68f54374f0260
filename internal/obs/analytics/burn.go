package analytics

import "sort"

// SLO burn-rate monitoring, after the multi-window multi-burn-rate
// pattern: an error budget (allowed SLO-miss fraction), a fast window
// that catches sharp regressions, and a slow window that suppresses
// pages for blips the budget easily absorbs. An alert fires only when
// BOTH windows burn faster than a severity's threshold; it resolves
// when either window drops back under. All windows are virtual-time
// seconds, so the monitor is as deterministic as the simulation feeding
// it: replaying a run's request records reproduces the alert sequence
// byte-for-byte.

// BurnSeverity orders alert severities.
type BurnSeverity int

// Severities: a page means the budget is being consumed so fast that
// hours remain; a warn means days.
const (
	BurnNone BurnSeverity = iota
	BurnWarn
	BurnPage
)

// String renders the severity for reports.
func (s BurnSeverity) String() string {
	switch s {
	case BurnPage:
		return "page"
	case BurnWarn:
		return "warn"
	default:
		return "none"
	}
}

// BurnAlert is one alert transition on a function's burn state.
type BurnAlert struct {
	Time     float64 `json:"time"`
	Func     string  `json:"func"`
	Severity string  `json:"severity"`
	// Resolved marks the severity de-escalating rather than firing.
	Resolved bool `json:"resolved"`
	// ShortBurn and LongBurn are the burn rates (miss-rate / budget) in
	// the two windows at the transition instant.
	ShortBurn float64 `json:"shortBurn"`
	LongBurn  float64 `json:"longBurn"`
}

// BurnStatus is one function's burn state at end of run.
type BurnStatus struct {
	Func      string  `json:"func"`
	Budget    float64 `json:"budget"`
	ShortBurn float64 `json:"shortBurn"`
	LongBurn  float64 `json:"longBurn"`
	// Misses and Total count over the whole run, not a window.
	Misses int `json:"misses"`
	Total  int `json:"total"`
	// Active is the severity still firing when the run ended.
	Active string `json:"active"`
	// Pages and Warns count fire transitions over the run.
	Pages int `json:"pages"`
	Warns int `json:"warns"`
}

// burnSample is one finalised request in a function's deque.
type burnSample struct {
	t    float64
	miss bool
}

// burnWindow is a sliding miss-rate window over virtual time: the
// suffix of its function's deque from head on.
type burnWindow struct {
	width  float64
	head   int // index of the oldest in-window sample
	misses int
	total  int
}

// observe counts the sample just appended to samples and drops from the
// window the samples older than its width.
func (w *burnWindow) observe(samples []burnSample, t float64, miss bool) {
	w.total++
	if miss {
		w.misses++
	}
	for w.head < len(samples) && samples[w.head].t < t-w.width {
		if samples[w.head].miss {
			w.misses--
		}
		w.total--
		w.head++
	}
}

// burn returns the window's burn rate: miss-rate divided by
// burnBudget. An empty window burns nothing.
func (w *burnWindow) burn() float64 {
	if w.total == 0 {
		return 0
	}
	return float64(w.misses) / float64(w.total) / burnBudget
}

// funcBurn is one function's monitor state. Both windows read one
// deque of samples, each from its own head; the prefix below the lower
// head is in neither and is reclaimed once it dominates the deque.
type funcBurn struct {
	samples     []burnSample
	short, long burnWindow
	misses      int
	total       int
	active      BurnSeverity
	pages       int
	warns       int
}

// observe feeds one sample to both windows.
func (fb *funcBurn) observe(t float64, miss bool) {
	fb.samples = append(fb.samples, burnSample{t, miss})
	fb.short.observe(fb.samples, t, miss)
	fb.long.observe(fb.samples, t, miss)
	if lo := min(fb.short.head, fb.long.head); lo > 1024 && lo*2 > len(fb.samples) {
		fb.samples = fb.samples[:copy(fb.samples, fb.samples[lo:])]
		fb.short.head -= lo
		fb.long.head -= lo
	}
}

// Burn-monitor tuning.
const (
	// burnBudget is the allowed SLO-miss fraction: a 99% objective.
	burnBudget float64 = 0.01
	// burnShortWindow and burnLongWindow are the two burn windows (s).
	burnShortWindow float64 = 300
	burnLongWindow  float64 = 3600
	// burnPage and burnWarn are the burn-rate thresholds: the canonical
	// 1h and 6h budget-exhaustion rates.
	burnPage float64 = 14.4
	burnWarn float64 = 6
)

// BurnMonitor tracks per-function SLO burn rates over two sliding
// virtual-time windows and raises threshold alerts.
type BurnMonitor struct {
	funcs  map[string]*funcBurn
	alerts []BurnAlert
}

// NewBurnMonitor returns an empty monitor.
func NewBurnMonitor() *BurnMonitor {
	return &BurnMonitor{funcs: map[string]*funcBurn{}}
}

// Observe feeds one finalised request (times must be non-decreasing,
// which completion order guarantees) and returns the alert transition
// it caused, if any.
func (m *BurnMonitor) Observe(fn string, t float64, miss bool) *BurnAlert {
	fb, ok := m.funcs[fn]
	if !ok {
		fb = &funcBurn{
			short: burnWindow{width: burnShortWindow},
			long:  burnWindow{width: burnLongWindow},
		}
		m.funcs[fn] = fb
	}
	fb.total++
	if miss {
		fb.misses++
	}
	fb.observe(t, miss)

	sb := fb.short.burn()
	lb := fb.long.burn()
	level := BurnNone
	switch {
	case sb >= burnPage && lb >= burnPage:
		level = BurnPage
	case sb >= burnWarn && lb >= burnWarn:
		level = BurnWarn
	}
	if level == fb.active {
		return nil
	}
	resolved := level < fb.active
	fb.active = level
	if !resolved {
		switch level {
		case BurnPage:
			fb.pages++
		case BurnWarn:
			fb.warns++
		}
	}
	// A resolve reports the level transitioned TO, so the alert stream
	// reads as a state machine (page -> warn -> none).
	a := BurnAlert{
		Time: t, Func: fn, Severity: level.String(), Resolved: resolved,
		ShortBurn: sb, LongBurn: lb,
	}
	m.alerts = append(m.alerts, a)
	return &a
}

// Alerts returns every alert transition in firing order.
func (m *BurnMonitor) Alerts() []BurnAlert { return m.alerts }

// Status returns per-function burn state, sorted by function name.
func (m *BurnMonitor) Status() []BurnStatus {
	out := make([]BurnStatus, 0, len(m.funcs))
	for fn, fb := range m.funcs {
		out = append(out, BurnStatus{
			Func: fn, Budget: burnBudget,
			ShortBurn: fb.short.burn(),
			LongBurn:  fb.long.burn(),
			Misses:    fb.misses, Total: fb.total,
			Active: fb.active.String(),
			Pages:  fb.pages, Warns: fb.warns,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Func < out[j].Func })
	return out
}
