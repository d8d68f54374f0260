package analytics

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"

	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/obs/util"
)

// Introspection after the run: an opt-in HTTP handler that exposes
// finished recorders. Endpoints:
//
//	/metrics      — Prometheus text exposition (scrape-compatible)
//	/analytics    — the full analytics Report as JSON
//	/state        — a driver-supplied platform snapshot as JSON
//	/decisions    — decision-provenance stream (filterable, JSON)
//	/why?req=<id> — one request's complete decision chain (JSON)
//	/debug/pprof/ — the standard Go profiler endpoints
//
// The handler holds references, not copies, and the recorders take no
// lock: other goroutines may read them only after the run ends. So
// serve a finished run (the simulator's model — run to completion, then
// serve), whose concurrent requests only read.

// ServerOptions wires the handler's data sources. Nil/zero fields are
// served as empty documents rather than errors, so a partially wired
// server is still inspectable.
type ServerOptions struct {
	// Recorder backs /metrics.
	Recorder *obs.Recorder
	// Report backs /analytics; nil serves an empty report.
	Report *Report
	// State backs /state: any JSON-marshalable value, typically the
	// platform's occupancy snapshot. Kept as an opaque value so this
	// package does not depend on the platform.
	State any
	// Decisions backs /decisions and /why; nil serves empty documents.
	Decisions *decisions.Recorder
	// Util backs /util and /heatmap; nil serves empty documents.
	Util *util.Report
}

// Handler returns the introspection mux.
func Handler(o ServerOptions) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheus(w, o.Recorder)
	})

	mux.HandleFunc("/analytics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		rp := o.Report
		if rp == nil {
			rp = &Report{}
		}
		_ = rp.WriteJSON(w)
	})

	mux.HandleFunc("/state", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(o.State)
	})

	mux.HandleFunc("/decisions", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var (
			wantKind decisions.Kind
			byKind   bool
			wantFunc = q.Get("func")
			wantReq  int
			byReq    bool
			limit    int
		)
		if s := q.Get("kind"); s != "" {
			k, err := decisions.ParseKind(s)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			wantKind, byKind = k, true
		}
		if s := q.Get("req"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				http.Error(w, "bad req: "+s, http.StatusBadRequest)
				return
			}
			wantReq, byReq = n, true
		}
		if s := q.Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "bad limit: "+s, http.StatusBadRequest)
				return
			}
			limit = n
		}
		w.Header().Set("Content-Type", "application/json")
		if !byKind && wantFunc == "" && !byReq && limit == 0 {
			_ = o.Decisions.WriteJSON(w)
			return
		}
		recs := o.Decisions.Snapshot()
		kept := recs[:0]
		for _, rec := range recs {
			if byKind && rec.Kind != wantKind {
				continue
			}
			if wantFunc != "" && rec.Func != wantFunc {
				continue
			}
			if byReq && rec.Req != wantReq {
				continue
			}
			kept = append(kept, rec)
		}
		if limit > 0 && len(kept) > limit {
			kept = kept[len(kept)-limit:]
		}
		_ = o.Decisions.WriteMatchJSON(w, kept)
	})

	mux.HandleFunc("/util", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		rp := o.Util
		if rp == nil {
			rp = &util.Report{}
		}
		_ = rp.WriteJSON(w)
	})

	mux.HandleFunc("/heatmap", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rp := o.Util
		if rp == nil {
			rp = &util.Report{}
		}
		_ = rp.WriteHeatmap(w)
	})

	mux.HandleFunc("/why", func(w http.ResponseWriter, r *http.Request) {
		s := r.URL.Query().Get("req")
		if s == "" {
			http.Error(w, "missing req parameter: /why?req=<id>", http.StatusBadRequest)
			return
		}
		req, err := strconv.Atoi(s)
		if err != nil {
			http.Error(w, "bad req: "+s, http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = o.Decisions.WriteChainJSON(w, req)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("fluidfaas introspection\n\n" +
			"/metrics      Prometheus text exposition\n" +
			"/analytics    blame / drift / burn report (JSON)\n" +
			"/state        platform snapshot (JSON)\n" +
			"/decisions    decision provenance, filters: kind, func, req, limit (JSON)\n" +
			"/why?req=<id> one request's decision chain (JSON)\n" +
			"/util         GPU utilization ledger report (JSON)\n" +
			"/heatmap      per-slice utilization heatmap (text)\n" +
			"/debug/pprof  Go profiler\n"))
	})

	return mux
}
