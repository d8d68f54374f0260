// Package obs is the platform's observability layer: per-request traces
// built from typed spans, a bounded ring that counts what it overwrites,
// log-bucketed latency histograms, and two deterministic exporters
// (Chrome trace-event JSON for Perfetto, and Prometheus-style text
// exposition).
//
// Everything here is an observer: recording a span or a lifecycle mark
// never schedules simulation work or mutates platform state, so a
// run with observability attached is bit-for-bit identical to one
// without. The Recorder's methods are nil-receiver safe — a nil
// *Recorder is the disabled sink and every call short-circuits — so
// instrumentation points do not need their own guards.
package obs

import (
	"fmt"
	"iter"
	"sort"
	"strings"

	"fluidfaas/internal/obs/chunk"
)

// SpanKind classifies how a span is rendered in the trace export.
type SpanKind int

// Span kinds.
const (
	// KindSlice is a duration span on a hardware track (one track per
	// MIG slice): model loads, stage executions, transfers.
	KindSlice SpanKind = iota
	// KindAsync is a duration span on a request's causal chain
	// (admission-to-completion, queueing). Async spans with the same
	// request identity nest in Perfetto.
	KindAsync
	// KindMark is an instant on a hardware or platform track
	// (lifecycle events: launch, evict, fault, reject, ...).
	KindMark
	// KindAsyncMark is an instant on a request's causal chain (retry
	// and migration hops).
	KindAsyncMark
	// KindCounter is a sampled numeric value on a hardware track
	// (per-slice health scores), rendered as a counter timeline.
	KindCounter
)

// Span is one recorded observation. Times are virtual-time seconds.
type Span struct {
	Kind SpanKind
	// Cat groups spans (queue, load, exec, transfer, request, retry).
	Cat string
	// Name labels the span (function name, event kind, ...).
	Name string
	// Track is the hardware track (a MIG slice ID) for KindSlice and
	// KindMark spans; empty means the platform-wide track.
	Track string
	// Func and Req tie the span to a request ("-1" = none). Together
	// they are the async chain identity.
	Func, Req int
	// Stage is the pipeline stage index (-1 when not stage-scoped).
	Stage int
	// Start and End bound the span; instants have Start == End.
	Start, End float64
	// Detail is free-form context (event detail, retry reason; for
	// exec spans recorded via StageSpan, the slice type).
	Detail string
	// Declared is the profiled duration the scheduler assumed for this
	// span (exec spans; 0 = no declared baseline), which drift analysis
	// compares End-Start against, or a request envelope's SLO (0 = none).
	Declared float64
	// Value is the sample of a KindCounter span.
	Value float64
}

// Track is one registered hardware track.
type Track struct {
	Node int
	Name string
}

// Recorder accumulates spans, tracks, and request metrics for one run.
// Apart from caller-set gauges it keeps one raw log, the span log, with
// each finalised request's envelope in it: the aggregates the exports
// show (busy seconds, event totals, latency histograms) are derived
// from it at export time. The log is a chunked table, so recording a
// span never copies the spans before it. The zero value is ready to
// use; a nil *Recorder is the disabled sink.
type Recorder struct {
	spans  chunk.Table[Span]
	tracks []Track
	tidx   map[string]int

	// gauges holds driver-set scalar metrics (e.g. dropped events).
	gauges map[string]float64

	// series holds driver-set labeled gauge families (per-slice health,
	// per-node pool occupancy, per-reason reject counts).
	series map[string]*labeledSeries

	// duration is the observed run length, for utilisation fractions.
	duration float64
}

// NewRecorder returns an empty, enabled recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// RegisterTrack declares a hardware track (a MIG slice) on a node.
// Registration order fixes the export's thread ordering; registering a
// name twice is a no-op.
func (r *Recorder) RegisterTrack(node int, name string) {
	if r == nil {
		return
	}
	if r.tidx == nil {
		r.tidx = make(map[string]int)
	}
	if _, ok := r.tidx[name]; ok {
		return
	}
	r.tidx[name] = len(r.tracks)
	r.tracks = append(r.tracks, Track{Node: node, Name: name})
}

// Tracks returns the registered hardware tracks in registration order.
func (r *Recorder) Tracks() []Track {
	if r == nil {
		return nil
	}
	return r.tracks
}

// SliceSpan records a duration span on a hardware track. Load and exec
// spans count as the track's busy time in the metrics export.
func (r *Recorder) SliceSpan(cat, name, track string, fn, req, stage int, start, end float64) {
	if r == nil {
		return
	}
	r.spans.Push(Span{
		Kind: KindSlice, Cat: cat, Name: name, Track: track,
		Func: fn, Req: req, Stage: stage, Start: start, End: end,
	})
}

// StageSpan records a stage execution on a hardware track together
// with the declared profile duration the scheduler assumed and the
// slice type it ran on (kept in Detail). It is the drift detector's
// input: observed End-Start versus Declared. It counts as busy time
// exactly as an exec SliceSpan does.
func (r *Recorder) StageSpan(name, track, sliceType string, fn, req, stage int, start, end, declared float64) {
	if r == nil {
		return
	}
	r.spans.Push(Span{
		Kind: KindSlice, Cat: "exec", Name: name, Track: track,
		Func: fn, Req: req, Stage: stage, Start: start, End: end,
		Detail: sliceType, Declared: declared,
	})
}

// CancelSliceWork truncates the track's hardware work spans at `at`:
// load/exec/transfer slice spans ending later are cut there (removed
// entirely when they start at or after it). Fault and quarantine
// teardowns call this because work spans are recorded upfront with
// their future end times — without the cut, the phantom tail of an
// execution that died with its hardware stays on the books as busy
// time, overstating the exported busy seconds and overlapping whatever
// the reallocated slice runs next. Safe to call broadly: on the single-threaded engine, any work
// span still open on a track at teardown time belongs to the owner
// being torn down. (A truncated exec span keeps its Declared profile
// time; the drift analytics see cancelled work as a fast outlier,
// which is accurate — the work did end early.)
func (r *Recorder) CancelSliceWork(track string, at float64) {
	if r == nil {
		return
	}
	// Compact in place, in record order; Truncate zeroes the vacated
	// tail so the cut spans' strings are not kept alive.
	n := 0
	for sp := range r.spans.All() {
		if sp.Kind == KindSlice && sp.Track == track && sp.End > at &&
			(sp.Cat == "load" || sp.Cat == "exec" || sp.Cat == "transfer") {
			if sp.Start >= at {
				continue
			}
			sp.End = at
		}
		*r.spans.At(n) = *sp
		n++
	}
	r.spans.Truncate(n)
}

// AsyncSpan records a duration span on a request's causal chain.
func (r *Recorder) AsyncSpan(cat, name string, fn, req int, start, end float64, detail string) {
	if r == nil {
		return
	}
	r.spans.Push(Span{
		Kind: KindAsync, Cat: cat, Name: name,
		Func: fn, Req: req, Stage: -1, Start: start, End: end, Detail: detail,
	})
}

// AsyncMark records an instant on a request's causal chain (a retry or
// migration hop).
func (r *Recorder) AsyncMark(cat, name string, fn, req int, t float64, detail string) {
	if r == nil {
		return
	}
	r.spans.Push(Span{
		Kind: KindAsyncMark, Cat: cat, Name: name,
		Func: fn, Req: req, Stage: -1, Start: t, End: t, Detail: detail,
	})
}

// MarkCat records an instant on a hardware or platform track under a
// category ("event" for lifecycle events, "health" for gray
// transitions, "swap" for tier traffic, ...), so trace viewers can
// group and filter instants by subsystem; the metrics export counts
// instants by name. The track may be unregistered (instance IDs,
// function names); the export puts those on the platform-wide track.
func (r *Recorder) MarkCat(cat, name, track string, t float64, detail string) {
	if r == nil {
		return
	}
	r.spans.Push(Span{
		Kind: KindMark, Cat: cat, Name: name, Track: track,
		Func: -1, Req: -1, Stage: -1, Start: t, End: t, Detail: detail,
	})
}

// Counter records a sampled numeric value on a hardware track at time t
// (e.g. a slice's health score). The chrome export renders these as
// counter timelines on the owning track's process.
func (r *Recorder) Counter(cat, name, track string, t, value float64) {
	if r == nil {
		return
	}
	r.spans.Push(Span{
		Kind: KindCounter, Cat: cat, Name: name, Track: track,
		Func: -1, Req: -1, Stage: -1, Start: t, End: t, Value: value,
	})
}

// histKeySep separates function and outcome in the metrics export's
// histogram keys; it cannot appear in either.
const histKeySep = "\xff"

// RequestSpan records a finalised request's envelope on its causal
// chain: the span from arrival to completion (the drop or reject
// instant for requests the platform abandoned), with the outcome
// (served, dropped, rejected or failed) in Detail and the request's
// SLO in Declared. It is the recorder's one request record: critical-
// path analysis, the burn monitor and the metrics export's latency
// histograms all read it.
func (r *Recorder) RequestSpan(name string, fn, req int, arrival, completion, slo float64, outcome string) {
	if r == nil {
		return
	}
	r.spans.Push(Span{
		Kind: KindAsync, Cat: "request", Name: name,
		Func: fn, Req: req, Stage: -1, Start: arrival, End: completion,
		Detail: outcome, Declared: slo,
	})
}

// IsRequest reports whether the span is a request envelope, as
// RequestSpan records it.
func (s *Span) IsRequest() bool { return s.Kind == KindAsync && s.Cat == "request" }

// SLOMiss reports whether a request envelope counts against its
// function's violation budget: any non-served outcome, or a served
// response later than the SLO. Requests without an SLO never miss.
func (s *Span) SLOMiss() bool {
	if s.Declared <= 0 {
		return false
	}
	return s.Detail != "served" || s.End-s.Start > s.Declared
}

// SetGauge records a driver-supplied scalar metric.
func (r *Recorder) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	if r.gauges == nil {
		r.gauges = make(map[string]float64)
	}
	r.gauges[name] = v
}

// labeledSeries is one labeled gauge family for the Prometheus export.
type labeledSeries struct {
	help  string
	order []string // label-block emission order (insertion order)
	// points maps a rendered label block (`k="v",k2="v2"`) to its value.
	points map[string]float64
}

// SetSeries records one sample of a labeled gauge family; labels render
// in the given order and later calls with the same name and labels
// overwrite. Families export in name order, samples in insertion order
// — callers that record in a deterministic order get deterministic
// output.
func (r *Recorder) SetSeries(name, help string, v float64, labels ...[2]string) {
	if r == nil {
		return
	}
	if r.series == nil {
		r.series = make(map[string]*labeledSeries)
	}
	s := r.series[name]
	if s == nil {
		s = &labeledSeries{help: help, points: map[string]float64{}}
		r.series[name] = s
	}
	var b strings.Builder
	for i, lv := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", lv[0], lv[1])
	}
	key := b.String()
	if _, ok := s.points[key]; !ok {
		s.order = append(s.order, key)
	}
	s.points[key] = v
}

// SetDuration records the run length, the denominator of the exported
// per-slice utilisation fractions.
func (r *Recorder) SetDuration(d float64) {
	if r == nil {
		return
	}
	r.duration = d
}

// Duration returns the recorded run length (0 when unset).
func (r *Recorder) Duration() float64 {
	if r == nil {
		return 0
	}
	return r.duration
}

// Spans yields all recorded spans in record order; a nil recorder
// yields none. The rows are the recorder's own: do not mutate them.
func (r *Recorder) Spans() iter.Seq[*Span] {
	if r == nil {
		return func(func(*Span) bool) {}
	}
	return r.spans.All()
}

// sortedKeys returns map keys in sorted order, for deterministic
// exports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
