package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"fluidfaas/internal/metrics"
	"fluidfaas/internal/obs/util"
)

// refChromeEvent is one trace event for the reference exporter; field
// order fixes the byte layout.
type refChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   *int64         `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type refChromeTrace struct {
	TraceEvents     []refChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}

func refAsyncID(fn, req int) string { return fmt.Sprintf("f%d-r%d", fn, req) }

// writeChromeTraceRef renders the trace by building every event with an
// args map and encoding the whole document with encoding/json: the
// oracle the streaming WriteChromeTrace must match byte for byte.
func writeChromeTraceRef(w io.Writer, r *Recorder) error {
	var evs []refChromeEvent

	meta := func(pid int, name string) {
		evs = append(evs, refChromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
	}
	meta(requestsPid, "requests")
	meta(platformPid, "platform")
	evs = append(evs, refChromeEvent{
		Name: "thread_name", Ph: "M", Pid: platformPid, Tid: 0,
		Args: map[string]any{"name": "lifecycle"},
	})
	namedNodes := map[int]bool{}
	tids := make(map[string]int, len(r.Tracks()))
	nodeNext := map[int]int{}
	for _, tr := range r.Tracks() {
		pid := nodePidBase + tr.Node
		if !namedNodes[tr.Node] {
			namedNodes[tr.Node] = true
			meta(pid, fmt.Sprintf("node%d", tr.Node))
		}
		tid := nodeNext[tr.Node]
		nodeNext[tr.Node]++
		tids[tr.Name] = tid
		evs = append(evs, refChromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": tr.Name},
		})
	}
	nodeOf := make(map[string]int, len(r.Tracks()))
	for _, tr := range r.Tracks() {
		nodeOf[tr.Name] = tr.Node
	}

	async := func(cat, name string, fn, req int, start, end float64, detail string) {
		args := map[string]any{"func": fn, "req": req}
		if detail != "" {
			args["detail"] = detail
		}
		id := refAsyncID(fn, req)
		evs = append(evs, refChromeEvent{
			Name: name, Cat: cat, Ph: "b", Ts: usec(start),
			Pid: requestsPid, Tid: 0, ID: id, Args: args,
		})
		evs = append(evs, refChromeEvent{
			Name: name, Cat: cat, Ph: "e", Ts: usec(end),
			Pid: requestsPid, Tid: 0, ID: id,
		})
	}
	// Request i's envelope goes before span reqPos[i].
	reqs := r.Requests()
	next := 0
	request := func() {
		rec := reqs[next]
		async("request", r.FuncName(rec.Func), rec.Func, rec.ID, rec.Arrival, rec.Completion, rec.Outcome())
		next++
	}
	i := 0
	for sp := range r.Spans() {
		for next < len(reqs) && int(r.reqPos[next]) <= i {
			request()
		}
		i++
		switch sp.Kind {
		case KindSlice:
			dur := usec(sp.End) - usec(sp.Start)
			args := map[string]any{"func": sp.Func, "req": sp.Req}
			if sp.Stage >= 0 {
				args["stage"] = sp.Stage
			}
			evs = append(evs, refChromeEvent{
				Name: sp.Name, Cat: sp.Cat, Ph: "X", Ts: usec(sp.Start), Dur: &dur,
				Pid: nodePidBase + nodeOf[sp.Track], Tid: tids[sp.Track], Args: args,
			})
		case KindAsync:
			async(sp.Cat, sp.Name, sp.Func, sp.Req, sp.Start, sp.End, sp.Detail)
		case KindAsyncMark:
			evs = append(evs, refChromeEvent{
				Name: sp.Name, Cat: sp.Cat, Ph: "n", Ts: usec(sp.Start),
				Pid: requestsPid, Tid: 0, ID: refAsyncID(sp.Func, sp.Req),
				Args: map[string]any{"func": sp.Func, "req": sp.Req, "detail": sp.Detail},
			})
		case KindMark:
			pid, tid := platformPid, 0
			if t, ok := tids[sp.Track]; ok {
				pid, tid = nodePidBase+nodeOf[sp.Track], t
			}
			args := map[string]any{"subject": sp.Track}
			if sp.Detail != "" {
				args["detail"] = sp.Detail
			}
			evs = append(evs, refChromeEvent{
				Name: sp.Name, Cat: sp.Cat, Ph: "i", Ts: usec(sp.Start),
				Pid: pid, Tid: tid, Scope: "t", Args: args,
			})
		}
	}
	for next < len(reqs) {
		request()
	}
	// The bound ledger report's segments follow, slice by slice; an
	// unregistered slice lands where an unregistered track's span does.
	if r != nil && r.states != nil {
		for _, sr := range r.states.Slices {
			for _, seg := range sr.Segments {
				dur := usec(seg.End) - usec(seg.Start)
				evs = append(evs, refChromeEvent{
					Name: seg.State.String(), Cat: "state", Ph: "X", Ts: usec(seg.Start), Dur: &dur,
					Pid: nodePidBase + nodeOf[sr.ID], Tid: tids[sr.ID],
					Args: map[string]any{"func": -1, "req": -1},
				})
			}
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(refChromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// chromeStrings mixes plain names with everything the streaming
// writer must hand to json.Marshal: HTML-escaped bytes, quotes and
// backslashes, control bytes, line/paragraph separators, non-ASCII and
// invalid UTF-8 (including a truncated sequence at the end).
var chromeStrings = []string{
	"", "app0", "exec app0", "gpu0/4g.40gb#0", "launch", "[4g]", "~ok 1.5 (a|b)",
	"<script>", "a<b", "a>b", "x&y", "del\x7f", `say "hi"`, `C:\path`, "tab\tnl\nret\r",
	"bell\x07\x00\x1f\x7f", "\u2028sep\u2029", "héllo ✓", "bad\xff\xfeutf8",
	"cut\xe2\x82",
}

// randomChromeRecorder fills a recorder with every span kind on
// registered and unregistered tracks, finalised requests of every
// outcome interleaved with the spans and with CancelSliceWork cuts, and
// adversarial strings drawn from chromeStrings and extra, function
// names included. On about half the seeds it binds a ledger report
// whose segments take every state on registered and unregistered
// slices.
func randomChromeRecorder(rng *rand.Rand, spans int, extra ...string) *Recorder {
	pool := append(chromeStrings[:len(chromeStrings):len(chromeStrings)], extra...)
	pick := func() string { return pool[rng.Intn(len(pool))] }
	r := NewRecorder()
	col := metrics.NewCollector()
	r.Bind(col, []string{pick(), pick(), pick(), pick()})
	var tracks []string
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		name := pick()
		if rng.Intn(2) == 0 {
			name = fmt.Sprintf("gpu%d/%s#%d", i, pick(), i)
		}
		r.RegisterTrack(rng.Intn(3), name)
		tracks = append(tracks, name)
	}
	track := func() string {
		if rng.Intn(4) == 0 {
			return pick() // possibly unregistered
		}
		return tracks[rng.Intn(len(tracks))]
	}
	for i := 0; i < spans; i++ {
		t0 := rng.Float64() * 100
		t1 := t0 + rng.Float64()*3
		fn, req := rng.Intn(5)-1, rng.Intn(1000)-1
		switch rng.Intn(9) {
		case 0:
			r.SliceSpan(pick(), pick(), track(), fn, req, rng.Intn(4)-1, t0, t1)
		case 1:
			r.StageSpan(pick(), track(), pick(), fn, req, rng.Intn(3), t0, t1, t1-t0)
		case 2:
			r.AsyncSpan(pick(), pick(), fn, req, t0, t1, "")
		case 3:
			r.AsyncSpan(pick(), pick(), fn, req, t0, t1, pick())
		case 4:
			r.AsyncMark(pick(), pick(), fn, req, t0, pick())
		case 5:
			// Func 4 has no bound name.
			col.Record(metrics.RequestRecord{
				ID: req, Func: rng.Intn(5), Arrival: t0, Completion: t1, SLO: rng.Float64(),
				Dropped: rng.Intn(2) == 0, Rejected: rng.Intn(4) == 0, Failed: rng.Intn(4) == 0,
			})
			r.RequestDone()
		case 6:
			r.MarkCat(pick(), pick(), track(), t0, "")
		case 7:
			r.MarkCat(pick(), pick(), track(), t0, pick())
		case 8:
			r.CancelSliceWork(track(), t0)
		}
	}
	if rng.Intn(2) == 0 {
		rep := &util.Report{}
		for i, n := 0, rng.Intn(5); i < n; i++ {
			sr := util.SliceReport{ID: track()}
			t0 := rng.Float64() * 100
			for j, m := 0, rng.Intn(10); j < m; j++ {
				t1 := t0 + rng.Float64()*3
				sr.Segments = append(sr.Segments, util.Segment{
					State: util.State(rng.Intn(util.NumStates)), Start: t0, End: t1,
				})
				t0 = t1
			}
			rep.Slices = append(rep.Slices, sr)
		}
		r.BindUtil(rep)
	}
	return r
}

func assertChromeMatchesRef(t *testing.T, name string, r *Recorder) {
	t.Helper()
	var got, want bytes.Buffer
	if err := writeChromeTraceRef(&want, r); err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if err := WriteChromeTrace(&got, r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("%s: streaming export differs from reference at byte %d:\n got  …%q\n want …%q",
			name, i, g[lo:min(len(g), i+80)], w[lo:min(len(w), i+80)])
	}
}

// TestChromeTraceMatchesReference: the streaming writer is byte-identical
// to the encoding/json exporter on seeded random recorders covering
// every span kind and adversarial strings, and on the empty and nil
// recorders.
func TestChromeTraceMatchesReference(t *testing.T) {
	assertChromeMatchesRef(t, "nil", nil)
	assertChromeMatchesRef(t, "empty", NewRecorder())
	assertChromeMatchesRef(t, "sample", sampleRecorder())
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		assertChromeMatchesRef(t, fmt.Sprintf("seed %d", seed), randomChromeRecorder(rng, rng.Intn(300)))
	}
}

// FuzzChromeTrace: on a random recorder built from the fuzz seed, with
// the fuzzed string among its names, categories, tracks and details,
// the streaming writer is byte-identical to the encoding/json exporter.
func FuzzChromeTrace(f *testing.F) {
	for i, s := range chromeStrings {
		f.Add(int64(i), uint16(37*i), s)
	}
	f.Add(int64(-1), uint16(0), "")
	f.Fuzz(func(t *testing.T, seed int64, spans uint16, s string) {
		rng := rand.New(rand.NewSource(seed))
		assertChromeMatchesRef(t, "fuzz", randomChromeRecorder(rng, int(spans%512), s))
	})
}

// TestChromeTraceAllocs: the export allocates per track, not per span
// or ledger segment — a 10k-span recorder bound to a 10k-segment report
// costs as many allocations as a 100-span, 100-segment one over the
// same tracks.
func TestChromeTraceAllocs(t *testing.T) {
	build := func(spans int) *Recorder {
		r := NewRecorder()
		r.Bind(metrics.NewCollector(), []string{"app0"})
		tracks := []string{"gpu0/4g.40gb#0", "gpu0/2g.20gb#0", "gpu1/7g.80gb#0"}
		for i, tr := range tracks {
			r.RegisterTrack(i/2, tr)
		}
		for i := 0; i < spans; i++ {
			t0 := float64(i) * 0.01
			tr := tracks[i%len(tracks)]
			switch i % 6 {
			case 0:
				r.SliceSpan("exec", "exec app0", tr, 0, i, i%3, t0, t0+0.005)
			case 1:
				finalise(r, metrics.RequestRecord{ID: i, Arrival: t0, Completion: t0 + 0.02})
			case 2:
				r.AsyncMark("retry", "retry", 0, i, t0, "slice failed")
			case 3:
				r.StageSpan("exec app0", tr, "4g.40gb", 0, i, i%3, t0, t0+0.004, 0.005)
			case 4:
				r.MarkCat("event", "launch", "app0#1", t0, "[4g]")
			case 5:
				r.MarkCat("event", "evict", tr, t0, "")
			}
		}
		rep := &util.Report{}
		for _, tr := range tracks {
			rep.Slices = append(rep.Slices, util.SliceReport{ID: tr})
		}
		for i := 0; i < spans; i++ {
			sr := &rep.Slices[i%len(tracks)]
			sr.Segments = append(sr.Segments, util.Segment{
				State: util.States[i%util.NumStates], Start: float64(i), End: float64(i + 1),
			})
		}
		r.BindUtil(rep)
		return r
	}
	measure := func(r *Recorder) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := WriteChromeTrace(io.Discard, r); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(build(100)), measure(build(10000))
	if large != small || large > 20 {
		t.Errorf("allocs: %v for 10k spans and segments vs %v for 100; want O(tracks), independent of both", large, small)
	}
}
