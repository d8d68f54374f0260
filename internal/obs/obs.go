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

	"fluidfaas/internal/metrics"
	"fluidfaas/internal/obs/chunk"
	"fluidfaas/internal/obs/util"
)

// SpanKind classifies how a span is rendered in the trace export.
type SpanKind uint8

// Span kinds.
const (
	// KindSlice is a duration span on a hardware track (one track per
	// MIG slice): model loads, stage executions, transfers. Every
	// KindSlice row is work; the slice-state timeline is not in the
	// log (see BindUtil).
	KindSlice SpanKind = iota
	// KindAsync is a duration span on a request's causal chain
	// (queueing, load waits). Async spans with the same request
	// identity nest in Perfetto, inside the request's envelope.
	KindAsync
	// KindMark is an instant on a hardware or platform track
	// (lifecycle events: launch, evict, fault, reject, ...).
	KindMark
	// KindAsyncMark is an instant on a request's causal chain (retry
	// and migration hops).
	KindAsyncMark
)

// Span is one recorded observation as Spans yields it: a view of a
// span-table row with the row's interned strings resolved. Times are
// virtual-time seconds.
type Span struct {
	Kind SpanKind
	// Cat groups spans (queue, load, exec, transfer, retry, and event
	// for lifecycle instants).
	Cat string
	// Name labels the span (function name, event kind, ...).
	Name string
	// Track is the hardware track (a MIG slice ID) of a KindSlice span,
	// or a KindMark span's subject; a mark whose subject is not a
	// registered track goes on the platform-wide track.
	Track string
	// Func and Req tie the span to a request (-1 = none). Together
	// they are the async chain identity.
	Func, Req int
	// Stage is the pipeline stage index (-1 when not stage-scoped).
	Stage int
	// Start and End bound the span; instants have Start == End.
	Start, End float64
	// Detail is free-form context (event detail, retry reason; for
	// exec spans recorded via StageSpan, the slice type).
	Detail string
	// Declared is the profiled duration the scheduler assumed for an
	// exec span (0 = no declared baseline), which drift analysis
	// compares End-Start against.
	Declared float64
}

// row is a Span as the span table stores it: its strings are indices
// into the recorder's intern table, and its request identity is
// narrowed to 32 bits. It holds no pointer, so the log costs the GC no
// scan, and it is 56 bytes on 64-bit platforms, against the view's
// 120.
type row struct {
	start, end, declared     float64
	cat, name, track, detail uint32
	fn, req, stage           int32
	kind                     SpanKind
}

// sym is one interned string: its text and, when it names a registered
// track, that track's index plus one (0 when it names none).
type sym struct {
	s     string
	track int32
}

// Track is one registered hardware track.
type Track struct {
	Node int
	Name string
}

// Recorder accumulates spans and tracks for one run. Apart from
// caller-set gauges it keeps one raw log, the span log, from which the
// exports derive their aggregates. The log is a chunked table of
// pointer-free rows, so recording a span never copies the spans before
// it; each distinct string a span names is kept once, in the intern
// table, and the rows refer to it by index. Requests are not
// in it: the request store is the metrics.Collector bound with Bind,
// and the recorder keeps only each record's position in the log. Nor
// are the utilization ledger's state segments: the Chrome export draws
// them from the report bound with BindUtil. The zero value is ready to
// use; a nil *Recorder is the disabled sink.
type Recorder struct {
	spans  chunk.Table[row]
	tracks []Track

	// syms is the intern table, indexed by a row's string IDs; ID 0 is
	// "". symOf finds a string's ID.
	syms  []sym
	symOf map[string]uint32

	// col is the request store, names its function names by
	// RequestRecord.Func, and reqPos[i] the log length when col's
	// record i was finalised.
	col    *metrics.Collector
	names  []string
	reqPos []int32

	// states is the closed utilization ledger's report, whose slice
	// segments the Chrome export draws after the span log.
	states *util.Report

	// gauges holds driver-set scalar metrics (e.g. dropped events).
	gauges map[string]float64

	// series holds driver-set labeled gauge families (per-node pool
	// occupancy, the fragmentation index over time).
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
	sy := &r.syms[r.intern(name)]
	if sy.track != 0 {
		return
	}
	r.tracks = append(r.tracks, Track{Node: node, Name: name})
	sy.track = int32(len(r.tracks))
}

// intern returns s's ID in the intern table, adding s on first sight.
func (r *Recorder) intern(s string) uint32 {
	if r.symOf == nil {
		r.syms = []sym{{}}
		r.symOf = map[string]uint32{"": 0}
	}
	if s == "" {
		return 0
	}
	id, ok := r.symOf[s]
	if !ok {
		id = uint32(len(r.syms))
		r.syms = append(r.syms, sym{s: s})
		r.symOf[s] = id
	}
	return id
}

// trackOf returns the index of the registered track that string ID id
// names, or -1 when it names none.
func (r *Recorder) trackOf(id uint32) int { return int(r.syms[id].track) - 1 }

// push appends a span to the log, interning its strings.
func (r *Recorder) push(kind SpanKind, cat, name, track string, fn, req, stage int, start, end float64, detail string, declared float64) {
	r.spans.Push(row{
		start: start, end: end, declared: declared,
		cat: r.intern(cat), name: r.intern(name), track: r.intern(track), detail: r.intern(detail),
		fn: int32(fn), req: int32(req), stage: int32(stage), kind: kind,
	})
}

// view resolves rw into the Span it stands for.
func (r *Recorder) view(rw *row) Span {
	return Span{
		Kind: rw.kind, Cat: r.syms[rw.cat].s, Name: r.syms[rw.name].s, Track: r.syms[rw.track].s,
		Func: int(rw.fn), Req: int(rw.req), Stage: int(rw.stage),
		Start: rw.start, End: rw.end, Detail: r.syms[rw.detail].s, Declared: rw.declared,
	}
}

// Tracks returns the registered hardware tracks in registration order.
func (r *Recorder) Tracks() []Track {
	if r == nil {
		return nil
	}
	return r.tracks
}

// SliceSpan records a load, exec or transfer span on a hardware track;
// every KindSlice row is work, which CancelSliceWork may cut. Load and
// exec spans count as the track's busy time in the metrics export.
func (r *Recorder) SliceSpan(cat, name, track string, fn, req, stage int, start, end float64) {
	if r == nil {
		return
	}
	r.push(KindSlice, cat, name, track, fn, req, stage, start, end, "", 0)
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
	r.push(KindSlice, "exec", name, track, fn, req, stage, start, end, sliceType, declared)
}

// CancelSliceWork truncates the track's hardware work spans at `at`:
// its slice spans (all of them load, exec or transfer work) ending
// later are cut there (removed entirely when they start at or after
// it). Fault and quarantine teardowns call this because work spans are
// recorded upfront with their future end times — without the cut, the
// phantom tail of an execution that died with its hardware stays on
// the books as busy time, overstating the exported busy seconds and
// overlapping whatever the reallocated slice runs next. Safe to call
// broadly: on the single-threaded engine, any work span still open on
// a track at teardown time belongs to the owner being torn down. (A
// truncated exec span keeps its Declared profile time; the drift
// analytics see cancelled work as a fast outlier, which is accurate —
// the work did end early.)
func (r *Recorder) CancelSliceWork(track string, at float64) {
	if r == nil {
		return
	}
	// A track no span has named has no work to cut.
	id, ok := r.symOf[track]
	if !ok {
		return
	}
	// Compact in place, in record order. A request finalised before
	// old span i moves to before its new index n.
	n, i, k := 0, 0, 0
	for rw := range r.spans.All() {
		for ; k < len(r.reqPos) && int(r.reqPos[k]) == i; k++ {
			r.reqPos[k] = int32(n)
		}
		i++
		if rw.kind == KindSlice && rw.track == id && rw.end > at {
			if rw.start >= at {
				continue
			}
			rw.end = at
		}
		*r.spans.At(n) = *rw
		n++
	}
	for ; k < len(r.reqPos); k++ {
		r.reqPos[k] = int32(n)
	}
	r.spans.Truncate(n)
}

// AsyncSpan records a duration span on a request's causal chain.
func (r *Recorder) AsyncSpan(cat, name string, fn, req int, start, end float64, detail string) {
	if r == nil {
		return
	}
	r.push(KindAsync, cat, name, "", fn, req, -1, start, end, detail, 0)
}

// AsyncMark records an instant on a request's causal chain (a retry or
// migration hop).
func (r *Recorder) AsyncMark(cat, name string, fn, req int, t float64, detail string) {
	if r == nil {
		return
	}
	r.push(KindAsyncMark, cat, name, "", fn, req, -1, t, t, detail, 0)
}

// MarkCat records an instant on a hardware or platform track under a
// category (the platform files every lifecycle event under "event");
// the metrics export counts instants by name. The track may be
// unregistered (instance IDs, function names); the export puts those
// on the platform-wide track.
func (r *Recorder) MarkCat(cat, name, track string, t float64, detail string) {
	if r == nil {
		return
	}
	r.push(KindMark, cat, name, track, -1, -1, -1, t, t, detail, 0)
}

// histKeySep separates function and outcome in the metrics export's
// histogram keys; it cannot appear in either.
const histKeySep = "\xff"

// Bind makes col the recorder's request store and names its function
// names; call RequestDone once after every record col takes.
func (r *Recorder) Bind(col *metrics.Collector, names []string) {
	if r == nil {
		return
	}
	r.col, r.names = col, names
}

// BindUtil hands the recorder the closed utilization ledger's report;
// the Chrome export draws its slice segments as "state" spans after
// the span log. The report is the ledger's: the recorder does not
// mutate it.
func (r *Recorder) BindUtil(rep *util.Report) {
	if r == nil {
		return
	}
	r.states = rep
}

// RequestDone notes that the bound collector's newest record was
// finalised at the current end of the span log.
func (r *Recorder) RequestDone() {
	if r == nil {
		return
	}
	r.reqPos = append(r.reqPos, int32(r.spans.Len()))
}

// Requests returns the bound collector's records in completion order
// (none when unbound). The slice is the collector's: do not mutate it.
func (r *Recorder) Requests() []metrics.RequestRecord {
	if r == nil || r.col == nil {
		return nil
	}
	return r.col.Records()
}

// FuncName returns the bound name of function fn ("" when none).
func (r *Recorder) FuncName(fn int) string {
	if r == nil || fn < 0 || fn >= len(r.names) {
		return ""
	}
	return r.names[fn]
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

// Spans yields all recorded spans in record order, each a view of its
// row; a nil recorder yields none.
func (r *Recorder) Spans() iter.Seq[Span] {
	return func(yield func(Span) bool) {
		for rw := range r.rows() {
			if !yield(r.view(rw)) {
				return
			}
		}
	}
}

// rows yields the span table's rows in record order; a nil recorder
// yields none.
func (r *Recorder) rows() iter.Seq[*row] {
	if r == nil {
		return func(func(*row) bool) {}
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
