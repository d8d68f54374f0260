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
	"iter"
	"sort"

	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/chunk"
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

// pathKey identifies a request's span chain.
type pathKey struct{ fn, req int }

// Reconstruct rebuilds every finalised request's critical path from the
// recorder's span log. The chain grammar it consumes:
//
//   - one "request" async span per finalised request (the envelope;
//     Detail carries the outcome),
//   - "retry" async marks for fault re-routes — each mark restarts the
//     chain: slice spans recorded before the last mark belong to a
//     failed attempt and are charged to the retry component, not to
//     exec/load/transfer,
//   - "exec"/"load"/"transfer" spans tied to the request (Req >= 0).
//
// Robustness over adversarial chains (partial chains of dropped or
// rejected requests, spans overlapping or spilling past the envelope)
// comes from clipping every span to the envelope and trimming the
// summed components, in taxonomy order, to never exceed the remaining
// end-to-end budget; queue is the residual. That construction makes
// "components sum exactly to end-to-end latency" an invariant rather
// than a hope.
//
// spans is iterated twice; obs.Recorder.Spans yields the span log in
// record order on every iteration.
func Reconstruct(spans iter.Seq[*obs.Span]) []RequestPath {
	type acc struct {
		path      RequestPath
		hasReq    bool
		lastRetry float64
		retries   int
		exec      float64
		load      float64
		transfer  float64
	}
	// The accumulators live in one table, indexed by chain.
	var accs chunk.Table[acc]
	chains := map[pathKey]int{}
	get := func(fn, req int) *acc {
		k := pathKey{fn, req}
		i, ok := chains[k]
		if !ok {
			i = accs.Len()
			accs.Push(acc{lastRetry: -1})
			chains[k] = i
		}
		return accs.At(i)
	}

	// Pass 1: envelopes and retry marks fix each chain's window and the
	// start of its surviving attempt.
	for sp := range spans {
		if sp.Req < 0 {
			continue
		}
		switch {
		case sp.IsRequest():
			a := get(sp.Func, sp.Req)
			a.hasReq = true
			a.path = RequestPath{
				Func: sp.Func, Name: sp.Name, Req: sp.Req,
				Arrival: sp.Start, End: sp.End, Outcome: sp.Detail,
			}
		case sp.Kind == obs.KindAsyncMark && sp.Cat == "retry":
			a := get(sp.Func, sp.Req)
			a.retries++
			if sp.Start > a.lastRetry {
				a.lastRetry = sp.Start
			}
		}
	}

	// Pass 2: sum the surviving attempt's slice work, clipped to the
	// envelope. Spans that start before the last retry mark belong to a
	// torn-down attempt (their recorded durations cover time that never
	// completed) and are excluded.
	for sp := range spans {
		if sp.Req < 0 {
			continue
		}
		switch sp.Cat {
		case "exec", "load", "transfer":
		default:
			continue
		}
		i, ok := chains[pathKey{sp.Func, sp.Req}]
		if !ok {
			continue
		}
		a := accs.At(i)
		if !a.hasReq {
			continue
		}
		if a.lastRetry >= 0 && sp.Start < a.lastRetry {
			continue
		}
		start, end := sp.Start, sp.End
		if start < a.path.Arrival {
			start = a.path.Arrival
		}
		if end > a.path.End {
			end = a.path.End
		}
		if end <= start {
			continue
		}
		switch sp.Cat {
		case "exec":
			a.exec += end - start
		case "load":
			a.load += end - start
		case "transfer":
			a.transfer += end - start
		}
	}

	out := make([]RequestPath, 0, accs.Len())
	for a := range accs.All() {
		if !a.hasReq {
			continue // orphan slice spans (run ended mid-service)
		}
		retryPenalty := 0.0
		if a.lastRetry >= 0 {
			retryPenalty = a.lastRetry - a.path.Arrival
		}
		rem := a.path.Latency()
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
		a.path.Comp.Exec = trim(a.exec)
		a.path.Comp.Transfer = trim(a.transfer)
		a.path.Comp.Load = trim(a.load)
		a.path.Comp.Retry = trim(retryPenalty)
		a.path.Comp.Queue = rem
		a.path.Retries = a.retries
		out = append(out, a.path)
	}
	// Completion order (ties by function then request) mirrors the
	// envelopes' record order and keeps downstream aggregation and JSON
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
