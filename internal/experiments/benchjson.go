package experiments

import (
	"encoding/json"
	"io"

	"fluidfaas/internal/obs/analytics"
	"fluidfaas/internal/sim"
)

// Machine-readable bench output: the end-to-end matrix plus the span-
// analytics report as one JSON document, for dashboards and regression
// tooling that should not scrape the aligned-column tables. The
// document is deterministic — rows are emitted in fixed workload ×
// system order and every analytics collection is pre-sorted — so
// same-seed runs produce byte-identical files.

// BenchDoc is the top-level BENCH_<exp>.json document.
type BenchDoc struct {
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	Duration   float64 `json:"duration"`
	// Runs holds one row per (workload, system), workload-major in
	// paper order.
	Runs []BenchRun `json:"runs"`
	// Analytics is the span-analytics report of the instrumented
	// FluidFaaS/medium capture (blame, stragglers, drift, burn).
	Analytics *analytics.Report `json:"analytics,omitempty"`
	// Swap is the swap-tier density study (models-per-GPU sweep),
	// present when -exp swap ran.
	Swap *SwapResult `json:"swap,omitempty"`
	// Gray is the gray-failure resilience study (rate × severity sweep
	// across mitigation levels), present when -exp gray ran.
	Gray *GrayResult `json:"gray,omitempty"`
	// Util is the GPU utilization ledger comparison (FluidFaaS vs ESG
	// waste attribution on the medium workload): where every GPU-second
	// went, including the stranded slice-seconds of coarse allocation.
	Util *UtilComparison `json:"util,omitempty"`
	// Engine aggregates the sim engines' self-telemetry across every run
	// in the document: events executed, wall-clock processing rate, the
	// deepest event heap seen, and cancellations. The wall-clock fields
	// are the document's only nondeterministic values.
	Engine *sim.Stats `json:"engine,omitempty"`
}

// BenchRun flattens one SystemResult to its reportable scalars.
type BenchRun struct {
	Workload   string  `json:"workload"`
	System     string  `json:"system"`
	SLOHit     float64 `json:"sloHit"`
	Goodput    float64 `json:"goodput"`
	Throughput float64 `json:"throughput"`
	Completed  int     `json:"completed"`
	Total      int     `json:"total"`
	Rejected   int     `json:"rejected"`
	Timeouts   int     `json:"timeouts"`
	LatencyP50 float64 `json:"latencyP50"`
	LatencyP95 float64 `json:"latencyP95"`
	LatencyP99 float64 `json:"latencyP99"`
	MeanUtil   float64 `json:"meanUtil"`
	PeakUtil   float64 `json:"peakUtil"`
	Fairness   float64 `json:"fairness"`
	Launched   int     `json:"launched"`
	Evictions  int     `json:"evictions"`
	Migrations int     `json:"migrations"`
	// Fragmentation is the run-mean fragmentation index (stranded GPC
	// fraction of the free pool).
	Fragmentation float64 `json:"fragmentation"`
}

// benchRun flattens one result.
func benchRun(r SystemResult) BenchRun {
	return BenchRun{
		Workload: r.Workload.String(), System: r.System,
		SLOHit: r.SLOHit, Goodput: r.Goodput, Throughput: r.Throughput,
		Completed: r.Completed, Total: r.Total,
		Rejected: r.Rejected, Timeouts: r.TimeoutDrops,
		LatencyP50: r.LatencyP50, LatencyP95: r.LatencyP95, LatencyP99: r.LatencyP99,
		MeanUtil: r.UtilGPCs.Mean(), PeakUtil: r.UtilGPCs.Max(),
		Fairness: r.Fairness,
		Launched: r.Launched, Evictions: r.Evictions, Migrations: r.Migrations,
		Fragmentation: r.Fragmentation.Mean(),
	}
}

// WriteBenchJSON writes the bench document for an end-to-end matrix and
// optional analytics, swap, gray and utilization reports.
func WriteBenchJSON(w io.Writer, exp string, e2e *EndToEnd, rp *analytics.Report, sw *SwapResult, gr *GrayResult, ut *UtilComparison) error {
	doc := BenchDoc{
		Experiment: exp,
		Seed:       e2e.Cfg.Seed,
		Duration:   e2e.Cfg.Duration,
		Analytics:  rp,
		Swap:       sw,
		Gray:       gr,
		Util:       ut,
	}
	var agg sim.Stats
	for _, wl := range Workloads {
		for _, sys := range systemsOrder() {
			r := e2e.Results[wl][sys]
			doc.Runs = append(doc.Runs, benchRun(r))
			agg.Executed += r.Engine.Executed
			agg.Scheduled += r.Engine.Scheduled
			agg.Cancellations += r.Engine.Cancellations
			if r.Engine.PeakHeapDepth > agg.PeakHeapDepth {
				agg.PeakHeapDepth = r.Engine.PeakHeapDepth
			}
			agg.WallSeconds += r.Engine.WallSeconds
		}
	}
	if agg.WallSeconds > 0 {
		agg.EventsPerSec = float64(agg.Executed) / agg.WallSeconds
	}
	if agg.Executed > 0 {
		doc.Engine = &agg
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
