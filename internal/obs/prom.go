package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus-style text exposition of the recorder's metrics:
// per-(function, outcome) request counts and latency histograms,
// per-slice busy-seconds and utilisation, lifecycle event totals, and
// caller-set gauges. The first three are derived here: histograms from
// the bound collector's request records, busy seconds from the span
// log's load and exec spans, event totals from its instants. The output
// is deterministic: series are emitted in sorted label order and floats
// use shortest-round-trip formatting, so identical recorder contents
// produce byte-identical files.

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus writes the recorder's metrics in Prometheus text
// exposition format. The request counts and latency histograms come
// from the records of the collector bound to r, one observation per
// record.
func WritePrometheus(w io.Writer, r *Recorder) error {
	if r == nil {
		r = &Recorder{}
	}
	var b strings.Builder

	// The requests feed the latency histograms, one family per
	// (function, outcome), in completion order. Families sort by
	// function+histKeySep+outcome, a key built once per family.
	type famKey struct{ fn, outcome string }
	type family struct {
		famKey
		sortKey string
		h       *Histogram
	}
	idx := map[famKey]int{}
	var fams []family
	for _, rec := range r.Requests() {
		k := famKey{r.FuncName(rec.Func), rec.Outcome()}
		j, ok := idx[k]
		if !ok {
			j = len(fams)
			idx[k] = j
			fams = append(fams, family{k, k.fn + histKeySep + k.outcome, NewLatencyHistogram()})
		}
		fams[j].h.Observe(rec.Latency())
	}
	// One pass over the span log's rows sums load and exec spans into
	// per-track busy seconds and counts instants by name, comparing
	// and counting interned IDs.
	tracks := r.Tracks()
	busy := make([]float64, len(tracks))
	load, lok := r.symOf["load"]
	exec, eok := r.symOf["exec"]
	byName := make([]int, len(r.syms))
	for rw := range r.spans.All() {
		switch {
		case rw.kind == KindSlice && (lok && rw.cat == load || eok && rw.cat == exec):
			if t := r.trackOf(rw.track); t >= 0 {
				busy[t] += rw.end - rw.start
			}
		case rw.kind == KindMark:
			byName[rw.name]++
		}
	}
	marks := map[string]int{}
	for id, n := range byName {
		if n > 0 {
			marks[r.syms[id].s] = n
		}
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].sortKey < fams[j].sortKey })
	b.WriteString("# HELP fluidfaas_requests_total Finalised requests by function and outcome.\n")
	b.WriteString("# TYPE fluidfaas_requests_total counter\n")
	for _, f := range fams {
		fmt.Fprintf(&b, "fluidfaas_requests_total{func=%q,outcome=%q} %d\n",
			f.fn, f.outcome, f.h.N)
	}
	b.WriteString("# HELP fluidfaas_request_latency_seconds End-to-end request latency.\n")
	b.WriteString("# TYPE fluidfaas_request_latency_seconds histogram\n")
	for _, f := range fams {
		fn, outcome, h := f.fn, f.outcome, f.h
		cum := h.Cumulative()
		for i, bound := range h.Bounds {
			fmt.Fprintf(&b, "fluidfaas_request_latency_seconds_bucket{func=%q,outcome=%q,le=%q} %d\n",
				fn, outcome, promFloat(bound), cum[i])
		}
		fmt.Fprintf(&b, "fluidfaas_request_latency_seconds_bucket{func=%q,outcome=%q,le=\"+Inf\"} %d\n",
			fn, outcome, h.N)
		fmt.Fprintf(&b, "fluidfaas_request_latency_seconds_sum{func=%q,outcome=%q} %s\n",
			fn, outcome, promFloat(h.Sum))
		fmt.Fprintf(&b, "fluidfaas_request_latency_seconds_count{func=%q,outcome=%q} %d\n",
			fn, outcome, h.N)
	}

	// Per-slice busy/idle utilisation counters, in track registration
	// order (stable and topology-meaningful).
	b.WriteString("# HELP fluidfaas_slice_busy_seconds_total Busy (load+exec) seconds per MIG slice.\n")
	b.WriteString("# TYPE fluidfaas_slice_busy_seconds_total counter\n")
	for i, tr := range tracks {
		fmt.Fprintf(&b, "fluidfaas_slice_busy_seconds_total{node=\"%d\",slice=%q} %s\n",
			tr.Node, tr.Name, promFloat(busy[i]))
	}
	if d := r.Duration(); d > 0 {
		b.WriteString("# HELP fluidfaas_slice_utilisation Busy fraction of the run per MIG slice.\n")
		b.WriteString("# TYPE fluidfaas_slice_utilisation gauge\n")
		for i, tr := range tracks {
			fmt.Fprintf(&b, "fluidfaas_slice_utilisation{node=\"%d\",slice=%q} %s\n",
				tr.Node, tr.Name, promFloat(busy[i]/d))
		}
	}

	// Lifecycle event totals by kind.
	b.WriteString("# HELP fluidfaas_events_total Platform lifecycle events by kind.\n")
	b.WriteString("# TYPE fluidfaas_events_total counter\n")
	for _, k := range sortedKeys(marks) {
		fmt.Fprintf(&b, "fluidfaas_events_total{kind=%q} %d\n", k, marks[k])
	}

	// Driver-set gauges (e.g. ring-dropped events, run duration).
	// sortedKeys already sorts; a second sort here was pure waste.
	for _, n := range sortedKeys(r.gauges) {
		fmt.Fprintf(&b, "# HELP %s Driver-set gauge.\n# TYPE %s gauge\n%s %s\n",
			n, n, n, promFloat(r.gauges[n]))
	}

	// Labeled gauge families (per-node pool occupancy, the
	// fragmentation index over time), in family-name order with
	// samples in the caller's insertion order.
	for _, n := range sortedKeys(r.series) {
		s := r.series[n]
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", n, s.help, n)
		for _, key := range s.order {
			if key == "" {
				fmt.Fprintf(&b, "%s %s\n", n, promFloat(s.points[key]))
			} else {
				fmt.Fprintf(&b, "%s{%s} %s\n", n, key, promFloat(s.points[key]))
			}
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}
