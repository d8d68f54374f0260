package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"

	"fluidfaas/internal/obs/jsonw"
)

// Chrome trace-event export: one process per node with one thread per
// MIG slice (so Perfetto shows a utilisation timeline per slice), plus
// a "requests" process carrying each request's causal chain as nested
// async spans (queue -> load/exec/transfer hops happen on the slice
// tracks; retries and lifecycle instants are marks). The output is a
// JSON-object-format trace ({"traceEvents": [...]}) per the trace-event
// spec and loads directly in Perfetto / chrome://tracing.
//
// The export is deterministic: events are emitted in record order,
// timestamps are integral microseconds, and the byte layout is the one
// encoding/json gives a struct with fields name, cat (omitempty), ph,
// ts, dur (omitempty), pid, tid, id (omitempty), s (omitempty) and an
// args map (sorted keys, omitted when empty). The writer streams: each
// event is rendered into one reused buffer and written through a
// bufio.Writer, so the document is never held in memory.

// Reserved pids: requests (async chains) and platform-wide marks live
// in their own processes; node n's hardware tracks use pid nodePidBase+n.
const (
	requestsPid = 1
	platformPid = 2
	nodePidBase = 10
)

func usec(t float64) int64 { return int64(math.Round(t * 1e6)) }

// trackLoc places a registered track: its node process and its thread
// (the track's per-node index).
type trackLoc struct{ node, tid int }

// WriteChromeTrace writes the recorder's spans, the bound collector's
// requests as envelope spans and, after them, the bound utilization
// report's slice segments, as Chrome trace-event JSON.
// Same recorder contents ⇒ byte-identical output. The trace
// carries no floats (timestamps are integral microseconds), so only a
// write error fails it.
func WriteChromeTrace(w io.Writer, r *Recorder) error {
	cw := chromeWriter{bw: bufio.NewWriterSize(w, 64<<10)}
	cw.b = append(cw.b, `{"traceEvents":[`...)

	// Metadata: name the processes and the per-slice threads.
	cw.meta("process_name", requestsPid, 0, "requests")
	cw.meta("process_name", platformPid, 0, "platform")
	cw.meta("thread_name", platformPid, 0, "lifecycle")
	// locs[i] places registered track i; a row finds its track through
	// the intern table, not by string.
	tracks := r.Tracks()
	locs := make([]trackLoc, len(tracks))
	nodeNext := map[int]int{} // next tid per node; present once named
	for i, tr := range tracks {
		pid := nodePidBase + tr.Node
		tid, named := nodeNext[tr.Node]
		if !named {
			cw.meta("process_name", pid, 0, "node"+strconv.Itoa(tr.Node))
		}
		nodeNext[tr.Node] = tid + 1
		locs[i] = trackLoc{node: tr.Node, tid: tid}
		cw.meta("thread_name", pid, tid, tr.Name)
	}
	// loc places a slice span on the track string ID id names; an
	// unregistered track's zero loc puts it on node 0's first thread.
	loc := func(id uint32) trackLoc {
		if t := r.trackOf(id); t >= 0 {
			return locs[t]
		}
		return trackLoc{}
	}

	// envelopes emits, as "request" async spans, the requests finalised
	// before span-log position pos, or all the rest at pos -1.
	reqs, next := r.Requests(), 0
	envelopes := func(pos int) {
		for ; next < len(reqs) && (pos < 0 || int(r.reqPos[next]) <= pos); next++ {
			rec := &reqs[next]
			cw.async("request", r.FuncName(rec.Func), rec.Func, rec.ID, rec.Arrival, rec.Completion, rec.Outcome())
		}
	}
	i := 0
	for rw := range r.rows() {
		envelopes(i)
		i++
		cat, name := r.syms[rw.cat].s, r.syms[rw.name].s
		fn, req := int(rw.fn), int(rw.req)
		switch rw.kind {
		case KindSlice:
			cw.slice(cat, name, loc(rw.track), fn, req, int(rw.stage), rw.start, rw.end)
		case KindAsync:
			cw.async(cat, name, fn, req, rw.start, rw.end, r.syms[rw.detail].s)
		case KindAsyncMark:
			cw.open('n', cat, usec(rw.start), name)
			cw.place(requestsPid, 0)
			cw.asyncID(fn, req)
			cw.b = append(cw.b, `,"args":{`...)
			cw.detail(r.syms[rw.detail].s)
			cw.funcReq(fn, req)
			cw.b = append(cw.b, '}')
			cw.emit()
		case KindMark:
			cw.open('i', cat, usec(rw.start), name)
			if t := r.trackOf(rw.track); t >= 0 {
				cw.place(nodePidBase+locs[t].node, locs[t].tid)
			} else {
				cw.place(platformPid, 0)
			}
			cw.b = append(cw.b, `,"s":"t","args":{`...)
			if rw.detail != 0 {
				cw.detail(r.syms[rw.detail].s)
			}
			cw.b = append(cw.b, `"subject":`...)
			cw.b = jsonw.AppendString(cw.b, r.syms[rw.track].s)
			cw.b = append(cw.b, '}')
			cw.emit()
		}
	}
	envelopes(-1)
	// The bound ledger report's segments, in report order, on their
	// slices' tracks.
	if r != nil && r.states != nil {
		for _, sr := range r.states.Slices {
			var l trackLoc
			if id, ok := r.symOf[sr.ID]; ok {
				l = loc(id)
			}
			for _, seg := range sr.Segments {
				cw.slice("state", seg.State.String(), l, -1, -1, -1, seg.Start, seg.End)
			}
		}
	}

	cw.b = append(cw.b, `],"displayTimeUnit":"ms"}`+"\n"...)
	cw.write()
	return cw.bw.Flush()
}

// chromeWriter renders one event at a time into b and writes it
// through bw. Write errors are not checked per event: bufio.Writer
// keeps the first one and Flush returns it.
type chromeWriter struct {
	bw *bufio.Writer
	b  []byte
	n  int // events emitted
}

// open starts an event in b with the fields before dur: the separator,
// name, cat when non-empty, ph and ts.
func (cw *chromeWriter) open(ph byte, cat string, ts int64, name string) {
	if cw.n > 0 {
		cw.b = append(cw.b, ',')
	}
	cw.n++
	cw.b = append(cw.b, `{"name":`...)
	cw.b = jsonw.AppendString(cw.b, name)
	if cat != "" {
		cw.b = append(cw.b, `,"cat":`...)
		cw.b = jsonw.AppendString(cw.b, cat)
	}
	cw.b = append(cw.b, `,"ph":"`...)
	cw.b = append(cw.b, ph, '"')
	cw.b = append(cw.b, `,"ts":`...)
	cw.b = strconv.AppendInt(cw.b, ts, 10)
}

// emit closes the event in b and writes it.
func (cw *chromeWriter) emit() {
	cw.b = append(cw.b, '}')
	cw.write()
}

func (cw *chromeWriter) write() {
	_, _ = cw.bw.Write(cw.b) // sticky in bw; Flush reports it
	cw.b = cw.b[:0]
}

// meta emits a metadata event naming a process or thread.
func (cw *chromeWriter) meta(name string, pid, tid int, value string) {
	cw.open('M', "", 0, name)
	cw.place(pid, tid)
	cw.b = append(cw.b, `,"args":{"name":`...)
	cw.b = jsonw.AppendString(cw.b, value)
	cw.b = append(cw.b, '}')
	cw.emit()
}

func (cw *chromeWriter) place(pid, tid int) {
	cw.b = append(cw.b, `,"pid":`...)
	cw.b = strconv.AppendInt(cw.b, int64(pid), 10)
	cw.b = append(cw.b, `,"tid":`...)
	cw.b = strconv.AppendInt(cw.b, int64(tid), 10)
}

// slice emits a duration span on a hardware track: an X event with
// the span's function, request and (when non-negative) stage as args.
// An unregistered track's zero loc puts it on node 0's first thread.
func (cw *chromeWriter) slice(cat, name string, loc trackLoc, fn, req, stage int, start, end float64) {
	cw.open('X', cat, usec(start), name)
	cw.b = append(cw.b, `,"dur":`...)
	cw.b = strconv.AppendInt(cw.b, usec(end)-usec(start), 10)
	cw.place(nodePidBase+loc.node, loc.tid)
	cw.b = append(cw.b, `,"args":{`...)
	cw.funcReq(fn, req)
	if stage >= 0 {
		cw.b = append(cw.b, `,"stage":`...)
		cw.b = strconv.AppendInt(cw.b, int64(stage), 10)
	}
	cw.b = append(cw.b, '}')
	cw.emit()
}

// async emits a duration span on a request's causal chain: a b/e pair
// under the chain's async identity.
func (cw *chromeWriter) async(cat, name string, fn, req int, start, end float64, detail string) {
	cw.open('b', cat, usec(start), name)
	cw.place(requestsPid, 0)
	cw.asyncID(fn, req)
	cw.b = append(cw.b, `,"args":{`...)
	if detail != "" {
		cw.detail(detail)
	}
	cw.funcReq(fn, req)
	cw.b = append(cw.b, '}')
	cw.emit()
	cw.open('e', cat, usec(end), name)
	cw.place(requestsPid, 0)
	cw.asyncID(fn, req)
	cw.emit()
}

// asyncID appends the request's async chain identity, "f<func>-r<req>".
func (cw *chromeWriter) asyncID(fn, req int) {
	cw.b = append(cw.b, `,"id":"f`...)
	cw.b = strconv.AppendInt(cw.b, int64(fn), 10)
	cw.b = append(cw.b, "-r"...)
	cw.b = strconv.AppendInt(cw.b, int64(req), 10)
	cw.b = append(cw.b, '"')
}

// detail appends the args entry `"detail":<s>,`; detail sorts first,
// so another key always follows.
func (cw *chromeWriter) detail(s string) {
	cw.b = append(cw.b, `"detail":`...)
	cw.b = jsonw.AppendString(cw.b, s)
	cw.b = append(cw.b, ',')
}

func (cw *chromeWriter) funcReq(fn, req int) {
	cw.b = append(cw.b, `"func":`...)
	cw.b = strconv.AppendInt(cw.b, int64(fn), 10)
	cw.b = append(cw.b, `,"req":`...)
	cw.b = strconv.AppendInt(cw.b, int64(req), 10)
}
