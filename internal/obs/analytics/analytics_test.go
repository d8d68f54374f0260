package analytics

import (
	"bytes"
	"testing"

	"fluidfaas/internal/metrics"
	"fluidfaas/internal/obs"
)

// boundRecorder returns a recorder bound to a fresh collector over the
// functions app0, app1 and app2.
func boundRecorder() (*obs.Recorder, *metrics.Collector) {
	r, col := obs.NewRecorder(), metrics.NewCollector()
	r.Bind(col, []string{"app0", "app1", "app2"})
	return r, col
}

// finalise records rec and notes it done, as the platform does when a
// request finishes.
func finalise(r *obs.Recorder, col *metrics.Collector, rec metrics.RequestRecord) {
	col.Record(rec)
	r.RequestDone()
}

// synthRecorder builds a small deterministic recorder: two functions,
// one with drifting exec times and SLO misses. The records carry the
// exec time blame reads; the exec spans feed drift.
func synthRecorder() *obs.Recorder {
	r, col := boundRecorder()
	for i := 0; i < 40; i++ {
		t0 := float64(i * 10)
		// app0: healthy, exec matches its declared 1s profile.
		r.StageSpan("exec app0", "gpu0/2g.20gb#0", "2g.20gb", 0, i, -1, t0+1, t0+2, 1)
		finalise(r, col, metrics.RequestRecord{ID: i, Func: 0, Arrival: t0, Completion: t0 + 2, Exec: 1, SLO: 5})
		// app1: observed exec is 1.6x the declared profile and misses
		// its SLO every time.
		r.StageSpan("exec app1", "gpu0/3g.40gb#0", "3g.40gb", 1, i, -1, t0+0.8, t0+4, 2)
		finalise(r, col, metrics.RequestRecord{ID: i, Func: 1, Arrival: t0, Completion: t0 + 4, Exec: 3.2, SLO: 1})
	}
	r.SetDuration(400)
	return r
}

// TestAnalyzeReport: the full pass classifies bottlenecks, flags the
// drifted stage, and pages on the burning function.
func TestAnalyzeReport(t *testing.T) {
	rp := Analyze(Config{}, synthRecorder())

	if rp.Requests != 80 {
		t.Fatalf("requests = %d, want 80", rp.Requests)
	}
	if len(rp.Blame) != 2 {
		t.Fatalf("blame rows = %d, want 2", len(rp.Blame))
	}
	b0, b1 := rp.Blame[0], rp.Blame[1]
	if b0.Func != "app0" || b1.Func != "app1" {
		t.Fatalf("blame order: %q, %q", b0.Func, b1.Func)
	}
	// app0: 1s exec + 1s queue per 2s request.
	if b0.Mean.Exec != 1 || b0.Mean.Queue != 1 {
		t.Errorf("app0 mean = %+v", b0.Mean)
	}
	// app1: 3.2s exec dominates its 4s latency.
	if b1.Dominant != "exec" || b1.Share < 0.7 {
		t.Errorf("app1 dominant = %q share %v", b1.Dominant, b1.Share)
	}

	// Drift: app1's ratio converges to 1.6 and is flagged; app0 is not.
	if len(rp.Drift) != 2 {
		t.Fatalf("drift entries = %d, want 2", len(rp.Drift))
	}
	for _, d := range rp.Drift {
		switch d.Key.Func {
		case "app0":
			if d.Flagged || d.Ratio != 1 {
				t.Errorf("app0 drift = %+v", d)
			}
		case "app1":
			if !d.Flagged || d.Ratio < 1.5 {
				t.Errorf("app1 drift = %+v", d)
			}
		}
	}
	flagEvents := 0
	for _, ev := range rp.DriftEvents {
		if !ev.Recovered && ev.Key.Func == "app1" {
			flagEvents++
		}
	}
	if flagEvents != 1 {
		t.Errorf("app1 flag events = %d, want 1", flagEvents)
	}

	// Burn: app1 misses 100% of a 1% budget in both windows -> page.
	var app1Burn *BurnStatus
	for i := range rp.Burn {
		if rp.Burn[i].Func == "app1" {
			app1Burn = &rp.Burn[i]
		}
	}
	if app1Burn == nil {
		t.Fatal("no burn status for app1")
	}
	if app1Burn.Active != "page" || app1Burn.Pages != 1 || app1Burn.Misses != 40 {
		t.Errorf("app1 burn = %+v", *app1Burn)
	}
	for _, s := range rp.Burn {
		if s.Func == "app0" && (s.Active != "none" || s.Misses != 0) {
			t.Errorf("app0 burn = %+v", s)
		}
	}
}

// TestAnalyzeDeterministic: the same recorder contents produce
// byte-identical JSON reports.
func TestAnalyzeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := Analyze(Config{}, synthRecorder()).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := Analyze(Config{}, synthRecorder()).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("reports differ across identical runs")
	}
}

// TestAnalyzeAllocsIndependentOfSpans: with no retried record the
// analysis reads the span log only for drift, which keeps per-key
// state, so it allocates the same over N exec spans as over 10N.
func TestAnalyzeAllocsIndependentOfSpans(t *testing.T) {
	build := func(spans int) *obs.Recorder {
		r, col := boundRecorder()
		for i := 0; i < 20; i++ {
			t0 := float64(i * 10)
			finalise(r, col, metrics.RequestRecord{ID: i, Func: i % 2, Arrival: t0, Completion: t0 + 2, Exec: 1, SLO: 5})
		}
		for i := 0; i < spans; i++ {
			t0 := float64(i)
			r.StageSpan("exec app0", "gpu0/2g.20gb#0", "2g.20gb", 0, i%20, 0, t0, t0+1, 1)
		}
		r.SetDuration(200)
		return r
	}
	allocs := func(r *obs.Recorder) float64 {
		return testing.AllocsPerRun(20, func() { Analyze(Config{}, r) })
	}
	if n, n10 := allocs(build(200)), allocs(build(2000)); n10 != n {
		t.Errorf("Analyze allocates %v over 200 exec spans but %v over 2000", n, n10)
	}
}

// TestDriftTrackerRecovery: a flagged key emits a recovery event when
// its EWMA returns inside the threshold.
func TestDriftTrackerRecovery(t *testing.T) {
	tr := NewDriftTracker()
	k := DriftKey{Func: "app0", Stage: 0, Slice: "2g.20gb"}
	var events []DriftEvent
	feed := func(obsDur float64, n int) {
		for i := 0; i < n; i++ {
			if ev := tr.Observe(float64(len(events)), k, obsDur, 1); ev != nil {
				events = append(events, *ev)
			}
		}
	}
	feed(2, driftMinSamples) // EWMA 2, past 1.25 -> flag at minSamples
	feed(1, 10)              // EWMA 1+0.8^k, inside 1.25 from k=7 -> recover
	if len(events) != 2 {
		t.Fatalf("events = %+v, want flag then recover", events)
	}
	if events[0].Recovered || !events[1].Recovered {
		t.Errorf("event sequence = %+v", events)
	}
	if e := tr.Entries(); len(e) != 1 || e[0].Flagged {
		t.Errorf("entries = %+v", e)
	}
}

// TestDriftTrackerMinSamples: no event before driftMinSamples
// observations, however extreme the ratio.
func TestDriftTrackerMinSamples(t *testing.T) {
	tr := NewDriftTracker()
	k := DriftKey{Func: "app0", Stage: -1, Slice: "7g.80gb"}
	for i := 0; i < driftMinSamples-1; i++ {
		if ev := tr.Observe(float64(i), k, 10, 1); ev != nil {
			t.Fatalf("event before minSamples: %+v", ev)
		}
	}
	if ev := tr.Observe(float64(driftMinSamples-1), k, 10, 1); ev == nil {
		t.Error("no event at minSamples with a 10x ratio")
	}
}

// TestBurnMonitorWindows: a burst of misses warns while both windows
// burn, then resolves once the short window slides past the burst.
func TestBurnMonitorWindows(t *testing.T) {
	m := NewBurnMonitor()
	// 90 successes then 10 misses in 0..50 s: both windows hold all 100,
	// so the miss rate climbs to 10% — a burn of 10 against the 1%
	// budget, past warn (6) but short of page (14.4).
	var fired []BurnAlert
	for i := 0; i < 100; i++ {
		if a := m.Observe("app0", float64(i)/2, i >= 90); a != nil {
			fired = append(fired, *a)
		}
	}
	if len(fired) != 1 || fired[0].Severity != "warn" || fired[0].Resolved {
		t.Fatalf("burst alerts = %+v, want one warn", fired)
	}
	// Successes after the short window has slid past the burst leave it
	// burning nothing -> resolve.
	for i := 0; i < 30; i++ {
		if a := m.Observe("app0", burnShortWindow+100+float64(i), false); a != nil {
			fired = append(fired, *a)
		}
	}
	if len(fired) != 2 || !fired[1].Resolved || fired[1].Severity != "none" {
		t.Fatalf("alerts = %+v, want warn then resolve", fired)
	}
	st := m.Status()
	if len(st) != 1 || st[0].Warns != 1 || st[0].Pages != 0 || st[0].Active != "none" {
		t.Errorf("status = %+v", st)
	}
}

// TestBurnMonitorPage: misses at full budget-burn in both windows
// escalate straight to page.
func TestBurnMonitorPage(t *testing.T) {
	m := NewBurnMonitor()
	var page *BurnAlert
	for i := 0; i < 10; i++ {
		if a := m.Observe("app0", float64(i), true); a != nil && page == nil {
			page = a
		}
	}
	if page == nil || page.Severity != "page" {
		t.Fatalf("alert = %+v, want page", page)
	}
	if page.ShortBurn != 100 || page.LongBurn != 100 {
		t.Errorf("burn rates = %v/%v, want 100/100", page.ShortBurn, page.LongBurn)
	}
}
