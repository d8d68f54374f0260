package analytics

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refBurnWindow is the two-deque burn window the monitor used to keep:
// each window appended every sample to a deque of its own and copied
// its live suffix into a fresh slice once the dead prefix dominated.
type refBurnWindow struct {
	width   float64
	samples []burnSample
	head    int
	misses  int
	total   int
}

func (w *refBurnWindow) observe(t float64, miss bool) {
	w.samples = append(w.samples, burnSample{t, miss})
	w.total++
	if miss {
		w.misses++
	}
	for w.head < len(w.samples) && w.samples[w.head].t < t-w.width {
		if w.samples[w.head].miss {
			w.misses--
		}
		w.total--
		w.head++
	}
	if w.head > 1024 && w.head*2 > len(w.samples) {
		w.samples = append([]burnSample(nil), w.samples[w.head:]...)
		w.head = 0
	}
}

func (w *refBurnWindow) burn() float64 {
	if w.total == 0 {
		return 0
	}
	return float64(w.misses) / float64(w.total) / burnBudget
}

type refFuncBurn struct {
	short, long refBurnWindow
	misses      int
	total       int
	active      BurnSeverity
	pages       int
	warns       int
}

// refBurnMonitor is the monitor over refBurnWindows: the reference the
// one-deque monitor must match.
type refBurnMonitor struct {
	funcs  map[string]*refFuncBurn
	alerts []BurnAlert
}

func (m *refBurnMonitor) Observe(fn string, t float64, miss bool) *BurnAlert {
	fb, ok := m.funcs[fn]
	if !ok {
		fb = &refFuncBurn{
			short: refBurnWindow{width: burnShortWindow},
			long:  refBurnWindow{width: burnLongWindow},
		}
		m.funcs[fn] = fb
	}
	fb.total++
	if miss {
		fb.misses++
	}
	fb.short.observe(t, miss)
	fb.long.observe(t, miss)

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
	a := BurnAlert{
		Time: t, Func: fn, Severity: level.String(), Resolved: resolved,
		ShortBurn: sb, LongBurn: lb,
	}
	m.alerts = append(m.alerts, a)
	return &a
}

func (m *refBurnMonitor) Status() []BurnStatus {
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

// TestBurnMonitorMatchesTwoWindows: on random completion streams over
// several functions, long enough that both heads pass 1024 samples and
// the deque's dead prefix is reclaimed, the one-deque monitor returns
// the alert each observation causes, Alerts and Status exactly as the
// two-deque reference does.
func TestBurnMonitorMatchesTwoWindows(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewBurnMonitor()
		ref := &refBurnMonitor{funcs: map[string]*refFuncBurn{}}
		funcs := 1 + rng.Intn(4)
		// Miss probabilities drift between phases, so alerts fire,
		// escalate and resolve.
		missP := make([]float64, funcs)
		now := 0.0
		n := 12000 + rng.Intn(8000)
		for i := range n {
			if i%500 == 0 {
				for f := range missP {
					missP[f] = []float64{0, 0.005, 0.08, 0.3, 1}[rng.Intn(5)]
				}
			}
			// Ties are common: completions often share an instant.
			if rng.Intn(4) > 0 {
				now += rng.ExpFloat64() * 4 / 3
			}
			f := rng.Intn(funcs)
			fn := fmt.Sprintf("app%d", f)
			miss := rng.Float64() < missP[f]
			got, want := m.Observe(fn, now, miss), ref.Observe(fn, now, miss)
			if (got == nil) != (want == nil) || got != nil && *got != *want {
				t.Fatalf("seed %d, sample %d: Observe = %+v, want %+v", seed, i, got, want)
			}
		}
		if len(ref.alerts) == 0 {
			t.Fatalf("seed %d: the stream fired no alert", seed)
		}
		if !slices.Equal(m.Alerts(), ref.alerts) {
			t.Fatalf("seed %d: %d alerts differ from the reference's %d", seed, len(m.Alerts()), len(ref.alerts))
		}
		if got, want := m.Status(), ref.Status(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Status = %+v, want %+v", seed, got, want)
		}
		reclaimed := false
		for _, fb := range m.funcs {
			reclaimed = reclaimed || len(fb.samples) < fb.total
		}
		if !reclaimed {
			t.Errorf("seed %d: %d samples over %.0f s reclaimed no deque prefix", seed, n, now)
		}
	}
}
