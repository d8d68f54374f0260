// Package metrics collects and summarises the quantities the paper's
// evaluation reports: SLO hit rates, throughput, latency CDFs and
// percentiles, the queue/load/exec/transfer latency breakdown (Fig. 14),
// and GPU/MIG time and utilisation timelines.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// RequestRecord is the outcome of one request. It packs into 80 bytes:
// the four outcome fields after SLO share one word. The field order is
// also the order of the records' JSON, which the platform goldens hash,
// so reorder nothing.
type RequestRecord struct {
	// ID is the request's identity (trace ID, or a caller-chosen tag
	// for injected requests — e.g. a workflow chain ID).
	ID      int
	Func    int
	Arrival float64
	// Completion is when the result was produced, or — for dropped
	// requests — when the platform abandoned them.
	Completion float64
	// Latency breakdown (Fig. 14).
	Queue    float64
	Load     float64
	Exec     float64
	Transfer float64
	// SLO is the request's latency budget (0 = none).
	SLO float64
	// Dropped marks requests the platform could not serve. Dropped
	// records carry the drop time in Completion, so Latency() is the
	// time the request spent waiting before being abandoned.
	Dropped bool
	// Rejected marks requests the admission controller fast-failed at
	// arrival: the client got an immediate rejection instead of a late
	// timeout. Rejected implies Dropped; it is a distinct outcome from a
	// timeout drop.
	Rejected bool
	// Retries counts fault-triggered re-routes this request survived,
	// at most the platform's retry cap.
	Retries int16
	// Failed marks requests abandoned because of hardware faults: the
	// retry budget or the deadline was exhausted after a fault. Failed
	// implies Dropped.
	Failed bool
}

// Latency returns the end-to-end latency.
func (r RequestRecord) Latency() float64 { return r.Completion - r.Arrival }

// SLOHit reports whether the request completed within its SLO.
func (r RequestRecord) SLOHit() bool {
	return !r.Dropped && r.SLO > 0 && r.Latency() <= r.SLO
}

// Outcome classifies the request for the exports: "rejected",
// "failed", "dropped" (a timeout drop) or "served".
func (r RequestRecord) Outcome() string {
	switch {
	case r.Rejected:
		return "rejected"
	case r.Failed:
		return "failed"
	case r.Dropped:
		return "dropped"
	default:
		return "served"
	}
}

// Collector accumulates request records. Record also keeps the tallies
// and latency-breakdown sums the run summaries read, so those cost O(1)
// instead of a scan over every record.
type Collector struct {
	records []RequestRecord

	completed, rejected, timeoutDrops, sloHits int
	// failed, retried and retries count hardware-fault casualties,
	// requests re-routed at least once, and re-routes in total.
	failed, retried, retries int
	// sum holds the breakdown components of completed requests, added
	// in record order — the order a scan of records would add them, so
	// MeanBreakdown is bit-identical to one.
	sum Breakdown
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Record adds one request outcome.
func (c *Collector) Record(r RequestRecord) {
	c.records = append(c.records, r)
	switch {
	case !r.Dropped:
		c.completed++
		c.sum.Queue += r.Queue
		c.sum.Load += r.Load
		c.sum.Exec += r.Exec
		c.sum.Transfer += r.Transfer
	case !r.Rejected && !r.Failed:
		c.timeoutDrops++
	}
	if r.Rejected {
		c.rejected++
	}
	if r.SLOHit() {
		c.sloHits++
	}
	if r.Failed {
		c.failed++
	}
	if r.Retries > 0 {
		c.retried++
		c.retries += int(r.Retries)
	}
}

// Reserve pre-sizes the store for n further records, so a run that
// knows its request count up front (trace replay) avoids the append
// doubling-and-copy traffic.
func (c *Collector) Reserve(n int) {
	if need := len(c.records) + n; need > cap(c.records) {
		grown := make([]RequestRecord, len(c.records), need)
		copy(grown, c.records)
		c.records = grown
	}
}

// Len returns the number of recorded requests.
func (c *Collector) Len() int { return len(c.records) }

// Records returns all records (shared slice; do not mutate).
func (c *Collector) Records() []RequestRecord { return c.records }

// Completed returns the number of served (non-dropped) requests.
func (c *Collector) Completed() int { return c.completed }

// RejectedCount returns requests fast-failed by admission control.
func (c *Collector) RejectedCount() int { return c.rejected }

// TimeoutDropCount returns requests dropped after waiting out a client
// timeout — drops that are neither fast-fail rejections nor hardware-
// fault casualties.
func (c *Collector) TimeoutDropCount() int { return c.timeoutDrops }

// Goodput returns SLO-meeting completions per second over the
// duration — the overload studies' headline metric: work that arrived
// late counts for nothing.
func (c *Collector) Goodput(duration float64) float64 {
	if duration <= 0 {
		return 0
	}
	return float64(c.sloHits) / duration
}

// FailedCount returns requests abandoned because of hardware faults.
func (c *Collector) FailedCount() int { return c.failed }

// RetriedCount returns requests that were re-routed at least once after
// a hardware fault (whether they ultimately completed or not).
func (c *Collector) RetriedCount() int { return c.retried }

// TotalRetries sums fault-triggered re-routes across all requests.
func (c *Collector) TotalRetries() int { return c.retries }

// Availability is the fraction of requests not lost to hardware
// faults: 1 - FailedCount/Len. An empty collector reports 1 (no
// request was ever failed).
func (c *Collector) Availability() float64 {
	if len(c.records) == 0 {
		return 1
	}
	return 1 - float64(c.failed)/float64(len(c.records))
}

// SLOHitRate returns the fraction of all requests that met their SLO.
// Dropped requests count as misses (they got no timely answer).
func (c *Collector) SLOHitRate() float64 {
	if len(c.records) == 0 {
		return 0
	}
	return float64(c.sloHits) / float64(len(c.records))
}

// SLOHitRateByFunc returns per-function SLO hit rates.
func (c *Collector) SLOHitRateByFunc() map[int]float64 {
	hits := map[int]int{}
	total := map[int]int{}
	for i := range c.records {
		r := &c.records[i]
		total[r.Func]++
		if r.SLOHit() {
			hits[r.Func]++
		}
	}
	out := make(map[int]float64, len(total))
	for f, n := range total {
		out[f] = float64(hits[f]) / float64(n)
	}
	return out
}

// Throughput returns completed requests per second over the duration.
func (c *Collector) Throughput(duration float64) float64 {
	if duration <= 0 {
		return 0
	}
	return float64(c.completed) / duration
}

// Latencies returns the sorted latencies of completed requests.
func (c *Collector) Latencies() []float64 {
	if c.completed == 0 {
		return nil
	}
	out := make([]float64, 0, c.completed)
	for i := range c.records {
		if r := &c.records[i]; !r.Dropped {
			out = append(out, r.Latency())
		}
	}
	sort.Float64s(out)
	return out
}

// LatenciesByFunc returns sorted per-function latencies.
func (c *Collector) LatenciesByFunc() map[int][]float64 {
	out := map[int][]float64{}
	for i := range c.records {
		if r := &c.records[i]; !r.Dropped {
			out[r.Func] = append(out[r.Func], r.Latency())
		}
	}
	for f := range out {
		sort.Float64s(out[f])
	}
	return out
}

// Breakdown is the mean per-request latency decomposition (Fig. 14).
type Breakdown struct {
	Queue    float64
	Load     float64
	Exec     float64
	Transfer float64
}

// Total returns the summed components.
func (b Breakdown) Total() float64 { return b.Queue + b.Load + b.Exec + b.Transfer }

// String renders the breakdown in milliseconds.
func (b Breakdown) String() string {
	return fmt.Sprintf("queue=%.0fms load=%.0fms exec=%.0fms transfer=%.0fms",
		b.Queue*1000, b.Load*1000, b.Exec*1000, b.Transfer*1000)
}

// MeanBreakdown returns the average decomposition over completed
// requests.
func (c *Collector) MeanBreakdown() Breakdown {
	if c.completed == 0 {
		return Breakdown{}
	}
	b := c.sum
	inv := 1 / float64(c.completed)
	b.Queue *= inv
	b.Load *= inv
	b.Exec *= inv
	b.Transfer *= inv
	return b
}

// Percentile returns the p-th percentile (0..100) of sorted values using
// nearest-rank. Empty input returns NaN.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Latency  float64
	Fraction float64
}

// CDF returns an empirical CDF of sorted values downsampled to at most
// points entries (always including the max).
func CDF(sorted []float64, points int) []CDFPoint {
	n := len(sorted)
	if n == 0 {
		return nil
	}
	if points <= 0 || points > n {
		points = n
	}
	out := make([]CDFPoint, 0, points)
	for i := 1; i <= points; i++ {
		idx := i*n/points - 1
		out = append(out, CDFPoint{
			Latency:  sorted[idx],
			Fraction: float64(idx+1) / float64(n),
		})
	}
	return out
}

// JainIndex returns Jain's fairness index (Σx)²/(n·Σx²) over the
// values: 1 when all shares are equal, 1/n when one value takes
// everything. Empty or all-zero input returns 1 (trivially fair).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}
