// Package analytics interprets the raw telemetry the obs layer
// collects: critical-path attribution of end-to-end latency, drift
// detection between observed stage executions and the declared FFS-DAG
// profiles the scheduler plans with, SLO burn-rate monitoring, and an
// introspection HTTP handler for a finished run. Like the collection layer beneath
// it, everything here is a pure observer — analysis reads recorder
// state and never feeds back into scheduling — and deterministic: the
// same recorder contents produce byte-identical reports.
package analytics

import (
	"slices"
	"sort"

	"fluidfaas/internal/metrics"
	"fluidfaas/internal/obs"
)

// Component names, in the fixed taxonomy (and trim-precedence) order.
// See Components for what each bucket means.
var ComponentNames = []string{"exec", "transfer", "load", "retry", "queue"}

// Components decomposes one request's end-to-end latency:
//
//	exec     — stage execution on MIG slices (final attempt only)
//	transfer — inter-stage hops through host shared memory
//	load     — model loads the request waited on (time-sharing loads
//	           in its service, or its share of an instance cold start)
//	retry    — fault penalty: everything from arrival to the last
//	           retry re-route, i.e. the failed attempts' queueing,
//	           wasted partial service, and backoff
//	queue    — the residual: load-balancer pending time and stage
//	           queue waits of the surviving attempt
//
// The five components always sum exactly to Completion-Arrival.
type Components struct {
	Queue    float64 `json:"queue"`
	Load     float64 `json:"load"`
	Exec     float64 `json:"exec"`
	Transfer float64 `json:"transfer"`
	Retry    float64 `json:"retry"`
}

// byName returns the component value for a taxonomy name.
func (c Components) byName(name string) float64 {
	switch name {
	case "exec":
		return c.Exec
	case "transfer":
		return c.Transfer
	case "load":
		return c.Load
	case "retry":
		return c.Retry
	default:
		return c.Queue
	}
}

// Dominant returns the largest component's name; ties break in
// taxonomy order, so the answer is deterministic.
func (c Components) Dominant() string {
	best, bestV := "queue", c.Queue
	for _, name := range ComponentNames {
		if v := c.byName(name); v > bestV {
			best, bestV = name, v
		}
	}
	return best
}

// RequestPath is one finalised request's critical-path attribution.
type RequestPath struct {
	Func    int     `json:"func"`
	Name    string  `json:"name"`
	Req     int     `json:"req"`
	Arrival float64 `json:"arrival"`
	End     float64 `json:"end"`
	Outcome string  `json:"outcome"`
	Retries int     `json:"retries"`
	Comp    Components
}

// Latency is the end-to-end latency the components decompose.
func (p RequestPath) Latency() float64 { return p.End - p.Arrival }

// Reconstruct builds every finalised request's critical path from the
// bound collector's records, in completion order. Exec, transfer and
// load are the record's own breakdown (the surviving attempt's work,
// which a hedged request counts once); retry is the penalty from
// arrival to the request's last "retry" async mark, the only thing read
// from the span log, and only when some record was retried.
//
// The components are trimmed, in taxonomy order, to never exceed the
// remaining end-to-end budget, and queue is the residual, which makes
// "components sum exactly to end-to-end latency" an invariant rather
// than a hope.
func Reconstruct(rec *obs.Recorder) []RequestPath {
	records := rec.Requests()
	// lastRetry holds each retried chain's latest retry mark.
	var lastRetry map[[2]int]float64
	if slices.ContainsFunc(records, func(r metrics.RequestRecord) bool { return r.Retries > 0 }) {
		lastRetry = map[[2]int]float64{}
		for sp := range rec.Spans() {
			if sp.Req < 0 || sp.Kind != obs.KindAsyncMark || sp.Cat != "retry" {
				continue
			}
			k := [2]int{sp.Func, sp.Req}
			if t, ok := lastRetry[k]; !ok || sp.Start > t {
				lastRetry[k] = sp.Start
			}
		}
	}

	out := make([]RequestPath, 0, len(records))
	for _, r := range records {
		p := RequestPath{
			Func: r.Func, Name: rec.FuncName(r.Func), Req: r.ID,
			Arrival: r.Arrival, End: r.Completion, Outcome: r.Outcome(),
			Retries: int(r.Retries),
		}
		retryPenalty := 0.0
		if t, ok := lastRetry[[2]int{r.Func, r.ID}]; ok {
			retryPenalty = t - r.Arrival
		}
		rem := p.Latency()
		trim := func(v float64) float64 {
			if v > rem {
				v = rem
			}
			if v < 0 {
				v = 0
			}
			rem -= v
			return v
		}
		p.Comp.Exec = trim(r.Exec)
		p.Comp.Transfer = trim(r.Transfer)
		p.Comp.Load = trim(r.Load)
		p.Comp.Retry = trim(retryPenalty)
		p.Comp.Queue = rem
		out = append(out, p)
	}
	// Completion order (ties by function then request) mirrors the
	// collector's record order and keeps downstream aggregation and JSON
	// byte-deterministic.
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		if out[i].Func != out[j].Func {
			return out[i].Func < out[j].Func
		}
		return out[i].Req < out[j].Req
	})
	return out
}
