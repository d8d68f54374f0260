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
	var waited float64
	served, arrived := 0, 0
	var arrive func()
	arrive = func() {
		enqueued := e.Now()
		st.Enqueue(&Job{
			Service: func() Time { waited += e.Now() - enqueued; return service },
			Done:    func() { served++ },
		})
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

// runMM1 feeds jobs Poisson arrivals at rate lambda into one station
// with exponential service at rate mu, runs the queue dry, and returns
// the station's utilisation and the time-average number in system
// (waiting plus in service) over the run.
func runMM1(seed int64, lambda, mu float64, jobs int) (util, inSystem float64) {
	e := NewEngine()
	st := NewStation(e)
	arrivals, services := NewRNG(seed, "mm1-arrive"), NewRNG(seed, "mm1-serve")
	// busy sums the service times, each drawn as its job starts.
	var busy Time
	svc := func() Time {
		d := services.Exp(1 / mu)
		busy += d
		return d
	}
	// area integrates the number in system n over time.
	var area, last Time
	n := 0
	step := func(d int) {
		area += Time(n) * (e.Now() - last)
		last = e.Now()
		n += d
	}
	leave := func() { step(-1) }
	arrived := 0
	var arrive func()
	arrive = func() {
		step(+1)
		st.Enqueue(&Job{Service: svc, Done: leave})
		if arrived++; arrived < jobs {
			e.After(arrivals.Exp(1/lambda), arrive)
		}
	}
	e.After(arrivals.Exp(1/lambda), arrive)
	e.Run()
	return busy / e.Now(), area / e.Now()
}

// TestStationMM1: Poisson arrivals at λ = 0.8 into an exponential
// server at μ = 1 (ρ = 0.8) keep the server busy a fraction ρ of the
// time and hold ρ/(1−ρ) = 4 jobs in system on average. Over 200k
// arrivals, seeds 1-10 put the utilisation within ±0.8% of ρ and the
// mean number in system within ±4.3% of 4 (the slow relaxation of a
// queue at ρ = 0.8 makes the latter the noisier); one fixed seed is
// held to 2% and 10%.
func TestStationMM1(t *testing.T) {
	const (
		lambda = 0.8
		mu     = 1.0
		jobs   = 200_000
	)
	rho := lambda / mu
	wantL := rho / (1 - rho)
	util, inSystem := runMM1(1, lambda, mu, jobs)
	t.Logf("M/M/1 utilisation %.4f (ρ %.2f, %+.1f%%), mean in system %.4f (%.0f, %+.1f%%)",
		util, rho, 100*(util/rho-1), inSystem, wantL, 100*(inSystem/wantL-1))
	if math.Abs(util/rho-1) > 0.02 {
		t.Errorf("utilisation %.4f, want %.2f within 2%%", util, rho)
	}
	if math.Abs(inSystem/wantL-1) > 0.10 {
		t.Errorf("mean in system %.3f, want %.0f within 10%%", inSystem, wantL)
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

// runBatchSaturation feeds jobs Poisson arrivals at rate lambda into a
// station serving batches of up to max jobs, each batch lasting the
// constant service, runs the queue dry, and returns the departure rate
// between the first and the last departure.
func runBatchSaturation(seed int64, lambda float64, max int, service Time, jobs int) float64 {
	e := NewEngine()
	st := NewStation(e)
	st.SetBatching(max, 0)
	rng := NewRNG(seed, "batch")
	svc := func() Time { return service }
	var firstOut, lastOut Time
	out := 0
	leave := func() {
		if out == 0 {
			firstOut = e.Now()
		}
		lastOut = e.Now()
		out++
	}
	arrived := 0
	var arrive func()
	arrive = func() {
		st.Enqueue(&Job{Service: svc, Done: leave})
		if arrived++; arrived < jobs {
			e.After(rng.Exp(1/lambda), arrive)
		}
	}
	e.After(rng.Exp(1/lambda), arrive)
	e.Run()
	return float64(out-1) / float64(lastOut-firstOut)
}

// TestStationBatchSaturation: Poisson arrivals above a batching
// station's capacity keep its server busy with full batches, so jobs
// depart at the batch-service bound B/s. Here B = 4 and s = 0.5 s
// (8 jobs/s) against λ = 9/s. Over 50k arrivals, seeds 1-20 put the
// departure rate between 0.99974 and 0.99998 of the bound, short only
// by the partial first and last batches; one fixed seed is held to
// 0.1%. No seed may beat the bound.
func TestStationBatchSaturation(t *testing.T) {
	const (
		lambda  = 9.0
		batch   = 4
		service = Time(0.5)
		jobs    = 50_000
	)
	want := batch / float64(service)
	got := runBatchSaturation(1, lambda, batch, service, jobs)
	t.Logf("batched departure rate %.4f/s, bound B/s %.0f/s (%+.3f%%)", got, want, 100*(got/want-1))
	if got > want*(1+1e-9) {
		t.Errorf("departure rate %.6f/s beats the bound %.0f/s", got, want)
	}
	if math.Abs(got/want-1) > 0.001 {
		t.Errorf("departure rate %.4f/s, want %.0f/s within 0.1%%", got, want)
	}
}
