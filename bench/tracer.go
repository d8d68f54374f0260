package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed phase of a rep, in microseconds from the rep start.
// Spans nest by time containment, which is how Chrome trace viewers
// draw complete ("X") events on one thread.
type span struct {
	Name string         `json:"name"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args,omitempty"`
}

// tracer keeps a rep's phase spans in memory. It is deliberately not
// internal/obs, so the measuring code does not depend on the code it
// measures.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it, which
// reports the span's duration.
func (t *tracer) begin(name string) func() time.Duration {
	start := time.Now()
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, TS: us(start.Sub(t.t0))})
	return func() time.Duration {
		d := time.Since(start)
		t.spans[i].Dur = us(d)
		return d
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// writeChromeTrace writes spans in Chrome trace-event format, one
// process per workload, for Perfetto or chrome://tracing.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		span
		Ph  string `json:"ph"`
		PID int    `json:"pid"`
		TID int    `json:"tid"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{span: s, Ph: "X", PID: 1, TID: 1}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
