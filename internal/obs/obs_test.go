package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"fluidfaas/internal/metrics"
	"fluidfaas/internal/obs/chunk"
	"fluidfaas/internal/obs/util"
)

// TestNilRecorder: every method of a nil recorder is a safe no-op —
// the disabled sink must cost nothing and never panic.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.RegisterTrack(0, "gpu0/1g.10gb#0")
	r.SliceSpan("exec", "app0", "gpu0/1g.10gb#0", 0, 1, 0, 0, 1)
	r.Bind(metrics.NewCollector(), []string{"app0"})
	r.RequestDone()
	r.BindUtil(&util.Report{})
	r.AsyncMark("retry", "retry", 0, 1, 1, "node died")
	r.MarkCat("event", "launch", "app0#1", 0, "")
	r.CancelSliceWork("gpu0/1g.10gb#0", 0.5)
	r.SetGauge("g", 1)
	r.SetDuration(10)
	if r.Tracks() != nil {
		t.Fatal("nil recorder returned tracks")
	}
	for range r.Spans() {
		t.Fatal("nil recorder yielded a span")
	}
	if r.Duration() != 0 {
		t.Fatal("nil recorder returned a duration")
	}
	if r.Requests() != nil || r.FuncName(0) != "" {
		t.Fatal("nil recorder returned requests or a function name")
	}
	// Exporters accept a nil recorder too.
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
}

// TestSpanRowSize: on a 64-bit platform a span-table row is at most
// 56 bytes and holds only numbers, so the log costs the GC no scan. A
// string field would cost 16 bytes and a scan on every span.
func TestSpanRowSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the row size is stated for 64-bit platforms")
	}
	if n := unsafe.Sizeof(row{}); n > 56 {
		t.Errorf("a span row is %d bytes, want at most 56", n)
	}
	rt := reflect.TypeOf(row{})
	for i := range rt.NumField() {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("span row field %s is a %s, want a sized number", f.Name, f.Type)
		}
	}
}

// TestSpanViewRoundTrip: the Span each recording method's row resolves
// to carries exactly the method's arguments, and a cut on a registered
// or an unregistered track changes only the cut spans' ends.
func TestSpanViewRoundTrip(t *testing.T) {
	const (
		reg   = "gpu0/1g.10gb#0"
		unreg = "gpu9/7g.80gb#0"
	)
	r := NewRecorder()
	r.RegisterTrack(0, reg)
	want := []Span{
		{Kind: KindSlice, Cat: "load", Name: "load app0", Track: reg, Func: 0, Req: 7, Stage: -1, Start: 0.5, End: 1},
		{Kind: KindSlice, Cat: "exec", Name: "exec app0", Track: reg, Func: 0, Req: 7, Stage: 2, Start: 1, End: 3, Detail: "1g.10gb", Declared: 1.5},
		{Kind: KindSlice, Cat: "transfer", Name: "transfer", Track: unreg, Func: 3, Req: 1 << 30, Stage: 1, Start: 2, End: 4},
		{Kind: KindAsync, Cat: "queue", Name: "queue", Func: 1, Req: 8, Stage: -1, Start: 0, End: 0.25},
		{Kind: KindAsync, Cat: "load", Name: "load-wait", Func: 1, Req: 8, Stage: -1, Start: 0.25, End: 2, Detail: "cold"},
		{Kind: KindAsyncMark, Cat: "retry", Name: "retry", Func: 2, Req: 9, Stage: -1, Start: 1.5, End: 1.5, Detail: "slice failed"},
		{Kind: KindMark, Cat: "event", Name: "launch", Track: "app0#1", Func: -1, Req: -1, Stage: -1, Start: 0.1, End: 0.1, Detail: "[4g]"},
		{Kind: KindMark, Cat: "event", Name: "evict", Track: reg, Func: -1, Req: -1, Stage: -1, Start: 2.5, End: 2.5},
		{Kind: KindSlice, Cat: "exec", Name: "exec app1", Track: unreg, Func: 1, Req: 10, Stage: 0, Start: 3.5, End: 5},
	}
	for _, sp := range want {
		switch {
		case sp.Kind == KindSlice && sp.Declared > 0:
			r.StageSpan(sp.Name, sp.Track, sp.Detail, sp.Func, sp.Req, sp.Stage, sp.Start, sp.End, sp.Declared)
		case sp.Kind == KindSlice:
			r.SliceSpan(sp.Cat, sp.Name, sp.Track, sp.Func, sp.Req, sp.Stage, sp.Start, sp.End)
		case sp.Kind == KindAsync:
			r.AsyncSpan(sp.Cat, sp.Name, sp.Func, sp.Req, sp.Start, sp.End, sp.Detail)
		case sp.Kind == KindAsyncMark:
			r.AsyncMark(sp.Cat, sp.Name, sp.Func, sp.Req, sp.Start, sp.Detail)
		default:
			r.MarkCat(sp.Cat, sp.Name, sp.Track, sp.Start, sp.Detail)
		}
	}
	check := func(stage string) {
		t.Helper()
		if got := slices.Collect(r.Spans()); !slices.Equal(got, want) {
			t.Fatalf("%s: spans = %+v\nwant %+v", stage, got, want)
		}
	}
	check("recorded")

	// A track no span names: nothing to cut.
	r.CancelSliceWork("gpu1/3g.40gb#0", 0)
	check("cut on an unnamed track")
	// The registered track at 2: the exec span ends there; the evict
	// mark on it is not work and stays.
	r.CancelSliceWork(reg, 2)
	want[1].End = 2
	check("cut on a registered track")
	// The unregistered track at 3.5: the transfer ends there and the
	// exec span starting at the cut goes.
	r.CancelSliceWork(unreg, 3.5)
	want[2].End = 3.5
	want = want[:len(want)-1]
	check("cut on an unregistered track")
}

// TestCancelSliceWorkAcrossChunks: cutting a track whose spans sit in
// the first and the last of more than two chunks removes and truncates
// exactly those spans, keeps every other span in record order, moves
// each finalised request to just after the surviving spans recorded
// before it, and later spans land right after the compacted end.
func TestCancelSliceWorkAcrossChunks(t *testing.T) {
	const (
		track = "gpu0/1g.10gb#0"
		at    = 1e6
	)
	n := 3*chunk.Size + 17
	// Spans on the cut track at these record positions start after the
	// cut (removed) or run across it (truncated).
	removed := map[int]bool{3: true, chunk.Size - 1: true, n - 5: true, n - 1: true}
	truncated := map[int]bool{4: true, n - 2: true}
	r := NewRecorder()
	r.Bind(metrics.NewCollector(), []string{"f"})
	r.RegisterTrack(0, track)
	r.RegisterTrack(0, "other")
	var want []int    // the Req of every span the cut keeps, in record order
	var wantPos []int // each request's surviving spans recorded before it
	for i := range n {
		if i%7 == 0 || removed[i-1] {
			finalise(r, metrics.RequestRecord{ID: i})
			wantPos = append(wantPos, len(want))
		}
		switch {
		case removed[i]:
			r.SliceSpan("exec", "f", track, 0, i, 0, at+1, at+2)
		case truncated[i]:
			r.SliceSpan("load", "f", track, 0, i, 0, at-1, at+1)
		case i%3 == 0:
			r.SliceSpan("exec", "f", track, 0, i, 0, float64(i), float64(i)+0.5)
		case i%3 == 1:
			r.SliceSpan("exec", "f", "other", 0, i, 0, at+1, at+2) // another track
		default:
			r.AsyncMark("retry", "retry", 0, i, at+1, "") // not work
		}
		if !removed[i] {
			want = append(want, i)
		}
	}
	finalise(r, metrics.RequestRecord{ID: n})
	wantPos = append(wantPos, len(want))
	r.CancelSliceWork(track, at)
	r.SliceSpan("exec", "f", track, 0, n, 0, at, at+1)
	want = append(want, n)

	var got []int
	for sp := range r.Spans() {
		if truncated[sp.Req] && sp.End != at {
			t.Errorf("span %d ends at %v, want the cut at %v", sp.Req, sp.End, at)
		}
		got = append(got, sp.Req)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%d spans after the cut, want %d in record order, the new span last", len(got), len(want))
	}
	var gotPos []int
	for _, pos := range r.reqPos {
		gotPos = append(gotPos, int(pos))
	}
	if !slices.Equal(gotPos, wantPos) {
		t.Fatalf("request positions after the cut = %v, want %v", gotPos, wantPos)
	}
}

// TestCancelSliceWorkKeepsRequestNeighbours: a cut that removes spans
// recorded both before and after a request was finalised leaves the
// request's envelope between the same surviving neighbours in the
// Chrome export.
func TestCancelSliceWorkKeepsRequestNeighbours(t *testing.T) {
	const track = "gpu0/1g.10gb#0"
	r := NewRecorder()
	r.Bind(metrics.NewCollector(), []string{"app0"})
	r.RegisterTrack(0, track)
	r.SliceSpan("exec", "before", track, 0, 1, 0, 0, 1)
	r.SliceSpan("exec", "cut", track, 0, 2, 0, 5, 6)
	finalise(r, metrics.RequestRecord{ID: 3, Arrival: 0, Completion: 3})
	r.SliceSpan("exec", "cut", track, 0, 4, 0, 5, 6)
	r.MarkCat("event", "after", track, 2, "")
	r.CancelSliceWork(track, 4)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Name, Ph string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			got = append(got, ev.Name+":"+ev.Ph)
		}
	}
	want := []string{"before:X", "app0:b", "app0:e", "after:i"}
	if !slices.Equal(got, want) {
		t.Errorf("events after the cut = %v, want %v", got, want)
	}
}

// finalise records rec in the collector bound to r and notes it done,
// as the platform does when a request finishes.
func finalise(r *Recorder, rec metrics.RequestRecord) {
	r.col.Record(rec)
	r.RequestDone()
}

func sampleRecorder() *Recorder {
	r := NewRecorder()
	r.RegisterTrack(0, "gpu0/4g.40gb#0")
	r.RegisterTrack(0, "gpu0/2g.20gb#0")
	r.RegisterTrack(1, "gpu8/4g.40gb#0")
	r.Bind(metrics.NewCollector(), []string{"app0", "app1"})
	finalise(r, metrics.RequestRecord{ID: 7, Func: 0, Arrival: 0, Completion: 2.5})
	r.AsyncSpan("queue", "queue", 0, 7, 0, 0.5, "")
	r.SliceSpan("load", "load app0", "gpu0/4g.40gb#0", 0, 7, -1, 0.5, 1.0)
	r.SliceSpan("exec", "exec app0", "gpu0/4g.40gb#0", 0, 7, 0, 1.0, 2.0)
	r.SliceSpan("transfer", "transfer", "gpu0/4g.40gb#0", 0, 7, 0, 2.0, 2.1)
	r.AsyncMark("retry", "retry", 0, 7, 2.2, "slice failed")
	r.MarkCat("event", "launch", "app0#1", 0.1, "[4g]")
	r.MarkCat("event", "evict", "gpu0/2g.20gb#0", 1.5, "LRU")
	finalise(r, metrics.RequestRecord{ID: 8, Func: 0, Arrival: 1, Completion: 9, Dropped: true})
	// Exactly on the first bound.
	finalise(r, metrics.RequestRecord{ID: 9, Func: 1, Arrival: 0, Completion: 0.001})
	r.SetGauge("fluidfaas_events_dropped", 3)
	r.SetDuration(10)
	return r
}

// promLine returns the exposition line of one series, or "".
func promLine(t *testing.T, r *Recorder, series string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, series+" ") {
			return line
		}
	}
	return ""
}

// TestRecorderAccounting: the export derives busy seconds from load+exec
// spans only, counts marks by name, and sees the cut CancelSliceWork
// makes to work spans.
func TestRecorderAccounting(t *testing.T) {
	r := sampleRecorder()
	busy := `fluidfaas_slice_busy_seconds_total{node="0",slice="gpu0/4g.40gb#0"}`
	if got := promLine(t, r, busy); got != busy+" 1.5" {
		t.Errorf("busy line = %q, want 1.5 (transfer must not count)", got)
	}
	for _, kind := range []string{"launch", "evict"} {
		series := `fluidfaas_events_total{kind="` + kind + `"}`
		if got := promLine(t, r, series); got != series+" 1" {
			t.Errorf("events line = %q, want 1", got)
		}
	}
	// Cutting the track at 1.5 truncates the exec span and removes the
	// transfer: 0.5 s load + 0.5 s exec remain.
	r.CancelSliceWork("gpu0/4g.40gb#0", 1.5)
	if got := promLine(t, r, busy); got != busy+" 1" {
		t.Errorf("busy line after cancel = %q, want 1", got)
	}
	if len(r.Tracks()) != 3 {
		t.Fatalf("tracks = %d, want 3", len(r.Tracks()))
	}
	r.RegisterTrack(0, "gpu0/4g.40gb#0") // duplicate: no-op
	if len(r.Tracks()) != 3 {
		t.Error("duplicate track registration added a track")
	}
}

// TestChromeTraceShape: the export is valid trace-event JSON — a
// traceEvents array whose events carry ph/ts/pid/tid — with one thread
// per registered slice and the expected span phases.
func TestChromeTraceShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	phases := map[string]int{}
	threadNames := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		for _, field := range []string{"ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %v missing %q", ev, field)
			}
		}
		ph := ev["ph"].(string)
		phases[ph]++
		if ev["name"] == "thread_name" {
			args := ev["args"].(map[string]any)
			threadNames[args["name"].(string)] = true
		}
	}
	for _, tr := range []string{"gpu0/4g.40gb#0", "gpu0/2g.20gb#0", "gpu8/4g.40gb#0"} {
		if !threadNames[tr] {
			t.Errorf("no thread metadata for slice track %s", tr)
		}
	}
	for _, ph := range []string{"X", "b", "e", "i", "n", "M"} {
		if phases[ph] == 0 {
			t.Errorf("no %q-phase events in export", ph)
		}
	}
	if phases["b"] != phases["e"] {
		t.Errorf("async begin/end mismatch: %d b vs %d e", phases["b"], phases["e"])
	}
}

// TestExportDeterminism: identical recorder contents produce
// byte-identical exports.
func TestExportDeterminism(t *testing.T) {
	var c1, c2, p1, p2 bytes.Buffer
	if err := WriteChromeTrace(&c1, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&c2, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Error("Chrome trace export is not deterministic")
	}
	if err := WritePrometheus(&p1, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&p2, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1.Bytes(), p2.Bytes()) {
		t.Error("Prometheus export is not deterministic")
	}
}

// TestPrometheusShape: the text exposition carries the histogram
// series with cumulative buckets, +Inf, sum and count, and the
// per-slice and event counters.
func TestPrometheusShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`fluidfaas_requests_total{func="app0",outcome="served"} 1`,
		`fluidfaas_requests_total{func="app0",outcome="dropped"} 1`,
		// 0.001 lands in the le="0.001" bucket (le semantics).
		`fluidfaas_request_latency_seconds_bucket{func="app1",outcome="served",le="0.001"} 1`,
		`fluidfaas_request_latency_seconds_bucket{func="app0",outcome="served",le="+Inf"} 1`,
		`fluidfaas_request_latency_seconds_count{func="app0",outcome="served"} 1`,
		`fluidfaas_slice_busy_seconds_total{node="0",slice="gpu0/4g.40gb#0"} 1.5`,
		`fluidfaas_slice_utilisation{node="0",slice="gpu0/4g.40gb#0"} 0.15`,
		`fluidfaas_events_total{kind="launch"} 1`,
		`fluidfaas_events_dropped 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
