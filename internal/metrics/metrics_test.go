package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func rec(fn int, arrival, latency, slo float64) RequestRecord {
	return RequestRecord{
		Func: fn, Arrival: arrival, Completion: arrival + latency, SLO: slo,
	}
}

func TestSLOHitRate(t *testing.T) {
	c := NewCollector()
	c.Record(rec(0, 0, 1.0, 1.5))                                         // hit
	c.Record(rec(0, 1, 2.0, 1.5))                                         // miss
	c.Record(rec(1, 2, 1.4, 1.5))                                         // hit
	c.Record(RequestRecord{Func: 1, Arrival: 3, SLO: 1.5, Dropped: true}) // miss
	if got := c.SLOHitRate(); got != 0.5 {
		t.Errorf("SLOHitRate = %v, want 0.5", got)
	}
	by := c.SLOHitRateByFunc()
	if by[0] != 0.5 || by[1] != 0.5 {
		t.Errorf("per-func rates = %v", by)
	}
	if c.Completed() != 3 {
		t.Errorf("Completed = %d, want 3", c.Completed())
	}
	if got := c.Throughput(10); got != 0.3 {
		t.Errorf("Throughput = %v, want 0.3", got)
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector()
	if c.SLOHitRate() != 0 || c.Throughput(10) != 0 || c.Len() != 0 {
		t.Error("empty collector not zero-valued")
	}
	if b := c.MeanBreakdown(); b.Total() != 0 {
		t.Error("empty breakdown not zero")
	}
	if lats := c.Latencies(); len(lats) != 0 {
		t.Error("empty latencies not empty")
	}
}

func TestLatenciesSorted(t *testing.T) {
	c := NewCollector()
	for _, l := range []float64{3, 1, 2} {
		c.Record(rec(0, 0, l, 0))
	}
	lats := c.Latencies()
	if lats[0] != 1 || lats[1] != 2 || lats[2] != 3 {
		t.Errorf("latencies = %v", lats)
	}
	by := c.LatenciesByFunc()
	if len(by[0]) != 3 {
		t.Errorf("per-func latencies = %v", by)
	}
}

func TestMeanBreakdown(t *testing.T) {
	c := NewCollector()
	c.Record(RequestRecord{Arrival: 0, Completion: 1, Queue: 0.2, Load: 0.1, Exec: 0.6, Transfer: 0.1})
	c.Record(RequestRecord{Arrival: 0, Completion: 1, Queue: 0.4, Load: 0.3, Exec: 0.2, Transfer: 0.1})
	c.Record(RequestRecord{Dropped: true, Queue: 99})
	b := c.MeanBreakdown()
	if math.Abs(b.Queue-0.3) > 1e-12 || math.Abs(b.Load-0.2) > 1e-12 ||
		math.Abs(b.Exec-0.4) > 1e-12 || math.Abs(b.Transfer-0.1) > 1e-12 {
		t.Errorf("breakdown = %+v", b)
	}
	if math.Abs(b.Total()-1.0) > 1e-12 {
		t.Errorf("Total = %v", b.Total())
	}
	if b.String() == "" {
		t.Error("String empty")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {50, 5}, {95, 10}, {100, 10}, {90, 9},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("P50 of empty should be NaN")
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cdf := CDF(xs, 2)
	if len(cdf) != 2 {
		t.Fatalf("CDF points = %d, want 2", len(cdf))
	}
	if cdf[1].Latency != 4 || cdf[1].Fraction != 1 {
		t.Errorf("last CDF point = %+v, want max/1.0", cdf[1])
	}
	if cdf[0].Latency != 2 || cdf[0].Fraction != 0.5 {
		t.Errorf("first CDF point = %+v", cdf[0])
	}
	if CDF(nil, 5) != nil {
		t.Error("CDF of empty should be nil")
	}
	full := CDF(xs, 0)
	if len(full) != 4 {
		t.Errorf("CDF with points=0 should use all values, got %d", len(full))
	}
}

// Property: CDF fractions are non-decreasing and end at 1.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []uint8, pts uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		sortFloats(xs)
		cdf := CDF(xs, int(pts%16)+1)
		prev := 0.0
		for _, p := range cdf {
			if p.Fraction < prev {
				return false
			}
			prev = p.Fraction
		}
		return cdf[len(cdf)-1].Fraction == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestTimeline(t *testing.T) {
	var tl Timeline
	tl.Add(0, 0.2)
	tl.Add(10, 0.8)
	tl.Add(20, 0.4)
	if tl.Len() != 3 {
		t.Fatalf("Len = %d", tl.Len())
	}
	if got := tl.Max(); got != 0.8 {
		t.Errorf("Max = %v", got)
	}
	// Time-weighted mean over [0,20]: (0.2*10 + 0.8*10)/20 = 0.5.
	if got := tl.Mean(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Mean = %v, want 0.5", got)
	}
	// Value below 0.5 during [0,10) = half the span.
	if got := tl.FractionBelow(0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("FractionBelow = %v, want 0.5", got)
	}
}

func TestTimelineOutOfOrderPanics(t *testing.T) {
	var tl Timeline
	tl.Add(10, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Add did not panic")
		}
	}()
	tl.Add(5, 1)
}

func TestTimelineDegenerate(t *testing.T) {
	var tl Timeline
	if tl.Mean() != 0 || tl.Max() != 0 || tl.FractionBelow(1) != 0 {
		t.Error("empty timeline not zero-valued")
	}
	tl.Add(5, 3)
	if tl.Mean() != 0 {
		t.Error("single-sample mean should be 0")
	}
}

func TestFaultCounters(t *testing.T) {
	c := NewCollector()
	if c.Availability() != 1 {
		t.Error("empty collector availability should be 1")
	}
	c.Record(RequestRecord{ID: 0, Arrival: 1, Completion: 2})
	c.Record(RequestRecord{ID: 1, Arrival: 1, Completion: 3, Retries: 2})
	c.Record(RequestRecord{ID: 2, Arrival: 1, Completion: 4, Retries: 1, Dropped: true, Failed: true})
	c.Record(RequestRecord{ID: 3, Arrival: 1, Completion: 5, Dropped: true})

	if got := c.FailedCount(); got != 1 {
		t.Errorf("FailedCount = %d, want 1 (plain drops are not failures)", got)
	}
	if got := c.RetriedCount(); got != 2 {
		t.Errorf("RetriedCount = %d, want 2", got)
	}
	if got := c.TotalRetries(); got != 3 {
		t.Errorf("TotalRetries = %d, want 3", got)
	}
	if got, want := c.Availability(), 0.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("Availability = %v, want %v", got, want)
	}
}

func TestDroppedRecordLatencyNonNegative(t *testing.T) {
	// Dropped requests record the drop time as Completion; latency is
	// the time spent waiting before abandonment, never negative.
	r := RequestRecord{Arrival: 5, Completion: 105, Dropped: true}
	if got := r.Latency(); got != 100 {
		t.Errorf("dropped latency = %v, want 100", got)
	}
}

func TestOverloadOutcomeCounters(t *testing.T) {
	c := NewCollector()
	// Served within SLO, served late, fast-fail rejection, timeout
	// drop, fault casualty.
	c.Record(RequestRecord{ID: 0, Func: 0, Arrival: 0, Completion: 1, SLO: 2})
	c.Record(RequestRecord{ID: 1, Func: 0, Arrival: 0, Completion: 5, SLO: 2})
	c.Record(RequestRecord{ID: 2, Func: 1, Arrival: 0, Completion: 0, SLO: 2, Dropped: true, Rejected: true})
	c.Record(RequestRecord{ID: 3, Func: 1, Arrival: 0, Completion: 8, SLO: 2, Dropped: true})
	c.Record(RequestRecord{ID: 4, Func: 1, Arrival: 0, Completion: 3, SLO: 2, Dropped: true, Failed: true})

	if got := c.RejectedCount(); got != 1 {
		t.Errorf("RejectedCount = %d, want 1", got)
	}
	if got := c.TimeoutDropCount(); got != 1 {
		t.Errorf("TimeoutDropCount = %d, want 1 (rejections and fault casualties excluded)", got)
	}
	if got := c.Goodput(10); got != 0.1 {
		t.Errorf("Goodput = %v, want 0.1 (only the SLO hit counts)", got)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex(nil); got != 1 {
		t.Errorf("JainIndex(nil) = %v, want 1", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero JainIndex = %v, want 1", got)
	}
	if got := JainIndex([]float64{3, 3, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal-share JainIndex = %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("winner-takes-all JainIndex = %v, want 1/n = 0.25", got)
	}
	// 2:1 split over two flows: (3)^2 / (2*5) = 0.9.
	if got := JainIndex([]float64{2, 1}); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("2:1 JainIndex = %v, want 0.9", got)
	}
}

// TestCollectorTalliesMatchScan: the tallies Record keeps answer every
// summary exactly as a scan of the records does — counts equal,
// latencies equal, and the mean breakdown equal to the bit, over random
// mixes of served, rejected, fault-failed and timeout-dropped requests.
func TestCollectorTalliesMatchScan(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCollector()
		n := rng.Intn(400)
		if seed == 1 {
			n = 0
		}
		for i := 0; i < n; i++ {
			arrival := rng.Float64() * 100
			r := RequestRecord{
				ID: i, Func: rng.Intn(3), Arrival: arrival,
				Completion: arrival + rng.ExpFloat64()*0.3,
				Queue:      rng.ExpFloat64() * 0.1, Load: rng.Float64() * 0.05,
				Exec: rng.ExpFloat64() * 0.07, Transfer: rng.Float64() * 0.01,
			}
			if rng.Intn(4) != 0 {
				r.SLO = 0.1 + rng.Float64()*0.4
			}
			switch rng.Intn(6) {
			case 0:
				r.Dropped, r.Rejected = true, true
			case 1:
				r.Dropped, r.Failed, r.Retries = true, true, 1+rng.Intn(3)
			case 2:
				r.Dropped = true
			}
			c.Record(r)
		}

		var completed, rejected, timeouts, hits int
		var lat []float64
		var b Breakdown
		for _, r := range c.Records() {
			if r.Rejected {
				rejected++
			}
			if r.Dropped && !r.Rejected && !r.Failed {
				timeouts++
			}
			if r.SLOHit() {
				hits++
			}
			if r.Dropped {
				continue
			}
			completed++
			lat = append(lat, r.Latency())
			b.Queue += r.Queue
			b.Load += r.Load
			b.Exec += r.Exec
			b.Transfer += r.Transfer
		}
		sort.Float64s(lat)
		if completed > 0 {
			inv := 1 / float64(completed)
			b.Queue *= inv
			b.Load *= inv
			b.Exec *= inv
			b.Transfer *= inv
		}
		hitRate := 0.0
		if n > 0 {
			hitRate = float64(hits) / float64(n)
		}

		if c.Completed() != completed || c.RejectedCount() != rejected ||
			c.TimeoutDropCount() != timeouts {
			t.Fatalf("seed %d: completed/rejected/timeouts = %d/%d/%d, scan says %d/%d/%d",
				seed, c.Completed(), c.RejectedCount(), c.TimeoutDropCount(),
				completed, rejected, timeouts)
		}
		if got := c.SLOHitRate(); got != hitRate {
			t.Fatalf("seed %d: SLOHitRate = %v, scan says %v", seed, got, hitRate)
		}
		if got, want := c.Throughput(60), float64(completed)/60; got != want {
			t.Fatalf("seed %d: Throughput = %v, scan says %v", seed, got, want)
		}
		if got := c.Latencies(); !reflect.DeepEqual(got, lat) {
			t.Fatalf("seed %d: Latencies differ from the scan", seed)
		}
		got := c.MeanBreakdown()
		for _, pair := range [][2]float64{
			{got.Queue, b.Queue}, {got.Load, b.Load},
			{got.Exec, b.Exec}, {got.Transfer, b.Transfer},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("seed %d: MeanBreakdown %+v, scan says %+v", seed, got, b)
			}
		}
	}
}
