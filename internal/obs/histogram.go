package obs

// Histogram is a fixed-bucket histogram with cumulative-friendly
// storage: Counts[i] tallies observations v <= Bounds[i] (and greater
// than Bounds[i-1]); Counts[len(Bounds)] is the +Inf overflow bucket.
// Bounds must be strictly ascending.
type Histogram struct {
	Bounds []float64
	Counts []int
	Sum    float64
	N      int
}

// NewHistogram returns a histogram over the given ascending upper
// bounds (plus an implicit +Inf overflow bucket).
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		Bounds: bounds,
		Counts: make([]int, len(bounds)+1),
	}
}

// latencyBounds are the log-spaced (factor 2) latency buckets: 1 ms up
// to ~131 s, covering sub-SLO service through the platform's pending-drop timeouts.
var latencyBounds = func() []float64 {
	out := make([]float64, 18)
	b := 0.001
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}()

// NewLatencyHistogram returns the standard log-bucketed latency
// histogram (1ms, 2ms, 4ms, ... ~131s, +Inf).
func NewLatencyHistogram() *Histogram { return NewHistogram(latencyBounds) }

// Observe adds one sample. Values on a bucket's upper bound land in
// that bucket (Prometheus `le` semantics); values above the last bound
// land in the +Inf overflow bucket.
func (h *Histogram) Observe(v float64) {
	// Binary search: first bound >= v.
	lo, hi := 0, len(h.Bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.Bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.Counts[lo]++
	h.Sum += v
	h.N++
}

// Cumulative returns the cumulative counts per bound (Prometheus
// bucket values), excluding the +Inf bucket whose cumulative count is
// N.
func (h *Histogram) Cumulative() []int {
	out := make([]int, len(h.Bounds))
	c := 0
	for i := range h.Bounds {
		c += h.Counts[i]
		out[i] = c
	}
	return out
}

// Quantile estimates the q-quantile (q in [0,1], clamped) by linear
// interpolation inside the bucket holding rank q·N, assuming samples
// are uniformly spread across the bucket — the same estimator as
// Prometheus's histogram_quantile. Semantics at the edges:
//
//   - An empty histogram (or one with no bounds) returns 0, never NaN.
//   - The first bucket interpolates from a lower edge of 0 (latency
//     buckets have no negative mass).
//   - q=0 returns the lower edge of the first non-empty bucket; q=1
//     the upper bound of the last non-empty one.
//   - Mass in the +Inf overflow bucket reports the last finite bound —
//     there is no upper edge to interpolate toward, so quantiles clamp
//     there (the log-bucket layout keeps the clamp within one factor-2
//     step of the true value for in-range data).
func (h *Histogram) Quantile(q float64) float64 {
	if h.N == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.N)
	cum := 0.0
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		if rank <= cum+float64(n) {
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			frac := (rank - cum) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + (h.Bounds[i]-lo)*frac
		}
		cum += float64(n)
	}
	return h.Bounds[len(h.Bounds)-1]
}
