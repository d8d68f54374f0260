// Package trace generates and replays invocation traces. The paper uses
// the Azure Functions production traces [47] to set invocation
// frequencies and intervals; this package provides a seeded synthetic
// generator with the same scheduling-relevant statistics — heavy-tailed
// per-function rates, bursts, and slow rate modulation — plus CSV
// import/export so real trace excerpts can be replayed.
package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"fluidfaas/internal/sim"
)

// Request is one function invocation.
type Request struct {
	// ID is unique within the trace, in arrival order.
	ID int
	// Func indexes the serverless function invoked (application).
	Func int
	// Arrival is the invocation time in seconds from trace start.
	Arrival float64
}

// Trace is a time-ordered sequence of requests.
type Trace struct {
	Requests []Request
	Duration float64
	NumFuncs int
}

// StreamSpec describes one function's invocation process.
type StreamSpec struct {
	// Func is the function index requests carry.
	Func int
	// MeanRPS is the long-run mean request rate.
	MeanRPS float64
	// RateSigma is the sigma of the log-normal per-bucket rate
	// modulation (0 = constant rate). Azure functions show strong
	// minute-scale variability; 0.4–0.8 is typical.
	RateSigma float64
	// BurstFactor multiplies the rate during bursts (<=1 = no bursts).
	BurstFactor float64
	// BurstFraction is the fraction of time spent in bursts.
	BurstFraction float64
	// BurstLen is the mean burst length in seconds (default 30).
	BurstLen float64
	// DiurnalAmplitude adds the Azure traces' daily swing: the rate is
	// modulated by 1 + A·sin(2π·t/DiurnalPeriod). 0 disables it.
	DiurnalAmplitude float64
	// DiurnalPeriod is the modulation period in seconds (default 86400,
	// one day; short traces typically use a compressed period).
	DiurnalPeriod float64
}

// Spec describes a whole trace.
type Spec struct {
	Duration float64
	Seed     int64
	// Bucket is the rate-modulation granularity in seconds (default 10).
	Bucket  float64
	Streams []StreamSpec
}

// Generate builds a trace from the spec. Identical specs yield identical
// traces.
func Generate(spec Spec) *Trace {
	if spec.Duration <= 0 {
		panic("trace: non-positive duration")
	}
	bucket := spec.Bucket
	if bucket <= 0 {
		bucket = 10
	}
	arrivals := make([][]float64, len(spec.Streams))
	maxFunc := 0
	for si, st := range spec.Streams {
		if st.Func > maxFunc {
			maxFunc = st.Func
		}
		rng := sim.NewRNG(spec.Seed, fmt.Sprintf("trace/stream%d", si))
		arrivals[si] = genStream(st, spec.Duration, bucket, rng)
	}
	return &Trace{
		Requests: mergeStreams(spec.Streams, arrivals),
		Duration: spec.Duration,
		NumFuncs: maxFunc + 1,
	}
}

// mergeStreams merges the streams' sorted arrivals into numbered
// requests in arrival order, ties to the earlier stream: the order a
// stable sort of the streams' concatenation gives, at O(n log streams)
// and with no request allocated twice.
func mergeStreams(specs []StreamSpec, arrivals [][]float64) []Request {
	total := 0
	var h []int // stream indices, a min-heap on (head arrival, index)
	for si, a := range arrivals {
		total += len(a)
		if len(a) > 0 {
			h = append(h, si)
		}
	}
	next := make([]int, len(arrivals))
	less := func(i, j int) bool {
		a, b := arrivals[i][next[i]], arrivals[j][next[j]]
		return a < b || a == b && i < j
	}
	down := func(k int) {
		for {
			c := 2*k + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && less(h[c+1], h[c]) {
				c++
			}
			if !less(h[c], h[k]) {
				return
			}
			h[k], h[c] = h[c], h[k]
			k = c
		}
	}
	for k := len(h)/2 - 1; k >= 0; k-- {
		down(k)
	}
	out := make([]Request, total)
	for i := range out {
		si := h[0]
		out[i] = Request{ID: i, Func: specs[si].Func, Arrival: arrivals[si][next[si]]}
		if next[si]++; next[si] == len(arrivals[si]) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return out
}

// ByArrival orders requests by arrival time. Stable sorts with it keep
// tied arrivals in trace order.
func ByArrival(a, b Request) int { return cmp.Compare(a.Arrival, b.Arrival) }

// sortAndNumber finalises request order and IDs.
func sortAndNumber(t *Trace) {
	slices.SortStableFunc(t.Requests, ByArrival)
	for i := range t.Requests {
		t.Requests[i].ID = i
	}
}

// streamHeadroom sizes a stream's arrivals up front: the expected count
// plus a quarter, so the slice is allocated once on all but the rarest
// draws. Regrown at Go's 1.25× step, it allocated about five times
// what it keeps.
const streamHeadroom = 1.25

// genStream draws one stream's arrival times, sorted. Each bucket's
// draws are sorted as they are drawn: they lie in [b, end] and the next
// bucket starts at that same end, so the sorted buckets concatenate to
// the sorted stream. Draws that tie are equal requests, so sorting them
// loses nothing.
func genStream(st StreamSpec, duration, bucket float64, rng *sim.RNG) []float64 {
	if st.MeanRPS <= 0 {
		return nil
	}
	// Burst windows: alternating exponential off/on periods sized so the
	// on-fraction matches BurstFraction.
	var windows [][2]float64
	bursty := st.BurstFactor > 1 && st.BurstFraction > 0 && st.BurstFraction < 1
	if bursty {
		burstLen := st.BurstLen
		if burstLen <= 0 {
			burstLen = 30
		}
		offLen := burstLen * (1 - st.BurstFraction) / st.BurstFraction
		t := rng.Exp(offLen)
		for t < duration {
			l := rng.Exp(burstLen)
			windows = append(windows, [2]float64{t, t + l})
			t += l + rng.Exp(offLen)
		}
	}
	inBurst := func(x float64) bool {
		for _, w := range windows {
			if x >= w[0] && x < w[1] {
				return true
			}
		}
		return false
	}

	// Compensate the modulation means so MeanRPS is honoured overall:
	// E[exp(N(0,s^2))] = exp(s^2/2), and bursts inflate the mean by
	// 1 + f*(k-1).
	mod := 1.0
	if st.RateSigma > 0 {
		mod = 1.0 / math.Exp(st.RateSigma*st.RateSigma/2)
	}
	if bursty {
		mod /= 1 + st.BurstFraction*(st.BurstFactor-1)
	}

	var arrivals []float64
	// A NaN or overflowing expectation reserves nothing and grows by append.
	if want := streamHeadroom * st.MeanRPS * duration; want < math.MaxInt32 {
		arrivals = make([]float64, 0, int(want))
	}
	for b := 0.0; b < duration; b += bucket {
		end := b + bucket
		if end > duration {
			end = duration
		}
		rate := st.MeanRPS * mod
		if st.RateSigma > 0 {
			rate *= rng.LogNorm(0, st.RateSigma)
		}
		if bursty && inBurst((b+end)/2) {
			rate *= st.BurstFactor
		}
		if st.DiurnalAmplitude > 0 {
			period := st.DiurnalPeriod
			if period <= 0 {
				period = 86400
			}
			rate *= 1 + st.DiurnalAmplitude*math.Sin(2*math.Pi*(b+end)/2/period)
			if rate < 0 {
				rate = 0
			}
		}
		n := rng.Poisson(rate * (end - b))
		from := len(arrivals)
		for i := 0; i < n; i++ {
			arrivals = append(arrivals, b+rng.Float64()*(end-b))
		}
		slices.Sort(arrivals[from:])
	}
	return arrivals
}

// MeanRate returns the trace's overall requests per second.
func (t *Trace) MeanRate() float64 {
	if t.Duration <= 0 {
		return 0
	}
	return float64(len(t.Requests)) / t.Duration
}

// RateTimeline returns per-bucket request rates (requests per second)
// for plotting utilisation/ demand curves.
func (t *Trace) RateTimeline(bucket float64) []float64 {
	if bucket <= 0 {
		bucket = 10
	}
	n := int(math.Ceil(t.Duration / bucket))
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for _, r := range t.Requests {
		i := int(r.Arrival / bucket)
		if i >= n {
			i = n - 1
		}
		out[i]++
	}
	for i := range out {
		out[i] /= bucket
	}
	return out
}

// PeakRate returns the highest bucketed rate.
func (t *Trace) PeakRate(bucket float64) float64 {
	peak := 0.0
	for _, r := range t.RateTimeline(bucket) {
		if r > peak {
			peak = r
		}
	}
	return peak
}

// CountByFunc returns the request count per function, indexed by
// function, so ranging over it lists functions in index order.
func (t *Trace) CountByFunc() []int {
	out := make([]int, t.NumFuncs)
	for _, r := range t.Requests {
		out[r.Func]++
	}
	return out
}
