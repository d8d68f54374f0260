package sim

import (
	"math"
	"testing"
)

// Queueing oracles in distribution: long seeded runs of Station against
// closed-form results, complementing TestStationTandemLindley's
// per-departure check.

// TestStationMD1MeanWait: Poisson arrivals at λ = 0.8 into a station
// with deterministic service D = 1 (ρ = 0.8) wait ρD / (2(1−ρ)) = 2 s
// on average (Pollaczek–Khinchine). Over 200k arrivals the sample mean
// of five seeds landed within ±4.2% of it; one fixed seed is held to
// 10%.
func TestStationMD1MeanWait(t *testing.T) {
	const (
		lambda  = 0.8
		service = Time(1)
		jobs    = 200_000
	)
	rho := lambda * float64(service)
	want := rho * float64(service) / (2 * (1 - rho))

	e := NewEngine()
	st := NewStation(e)
	rng := NewRNG(1, "md1")
	svc := func() Time { return service }
	var waited float64
	served, arrived := 0, 0
	var arrive func()
	arrive = func() {
		j := &Job{Service: svc}
		j.Done = func() {
			waited += j.StartedAt - j.EnqueuedAt
			served++
		}
		st.Enqueue(j)
		if arrived++; arrived < jobs {
			e.After(rng.Exp(1/lambda), arrive)
		}
	}
	e.After(rng.Exp(1/lambda), arrive)
	e.Run()

	if served != jobs {
		t.Fatalf("served %d of %d jobs", served, jobs)
	}
	got := waited / jobs
	t.Logf("M/D/1 mean wait %.4f s, Pollaczek-Khinchine %.4f s (%+.1f%%)", got, want, 100*(got/want-1))
	if math.Abs(got/want-1) > 0.10 {
		t.Errorf("mean wait %.3f s, want %.3f s within 10%%", got, want)
	}
}

// TestStationTandemBottleneck: a saturated two-station tandem departs
// at the rate of its slowest stage, 1/max(service), whichever stage
// that is.
func TestStationTandemBottleneck(t *testing.T) {
	const jobs = 10_000
	for _, service := range [][2]Time{{0.5, 0.8}, {0.8, 0.5}} {
		e := NewEngine()
		first, second := NewStation(e), NewStation(e)
		var firstOut, lastOut Time
		out := 0
		svc0 := func() Time { return service[0] }
		svc1 := func() Time { return service[1] }
		leave := func() {
			if out == 0 {
				firstOut = e.Now()
			}
			lastOut = e.Now()
			out++
		}
		hop := func() { second.Enqueue(&Job{Service: svc1, Done: leave}) }
		for i := 0; i < jobs; i++ {
			first.Enqueue(&Job{Service: svc0, Done: hop})
		}
		e.Run()

		if out != jobs {
			t.Fatalf("service %v: %d of %d jobs left the tandem", service, out, jobs)
		}
		want := 1 / float64(max(service[0], service[1]))
		got := float64(jobs-1) / (lastOut - firstOut)
		if math.Abs(got/want-1) > 1e-9 {
			t.Errorf("service %v: throughput %.6f/s, want 1/%v = %.6f/s", service, got, max(service[0], service[1]), want)
		}
	}
}
