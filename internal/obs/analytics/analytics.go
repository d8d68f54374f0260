package analytics

import (
	"encoding/json"
	"io"
	"sort"

	"fluidfaas/internal/obs"
)

// Config is the analysis pass's option set. It has no fields: the
// drift, burn and straggler tunings are constants (drift.go, burn.go,
// stragglerLimit), and Config stays so Analyze's callers need not change.
type Config struct{}

// stragglerLimit caps the straggler report.
const stragglerLimit int = 10

// FuncBlame is one function's latency blame table: per-component mean
// and quantiles over every finalised request, plus the dominant
// bottleneck classification.
type FuncBlame struct {
	Func     string `json:"func"`
	Requests int    `json:"requests"`
	// MeanLatency and P99Latency summarise end-to-end latency; the
	// quantile is histogram-interpolated (log buckets), the mean exact.
	MeanLatency float64 `json:"meanLatency"`
	P99Latency  float64 `json:"p99Latency"`
	// Mean components are exact; P50/P95/P99 come from per-component
	// log-bucket histograms, so they are estimates with bucket-sized
	// resolution (but deterministic).
	Mean Components `json:"mean"`
	P50  Components `json:"p50"`
	P95  Components `json:"p95"`
	P99  Components `json:"p99"`
	// Dominant is the component with the largest mean; Share is its
	// fraction of mean latency (0 when mean latency is 0).
	Dominant string  `json:"dominant"`
	Share    float64 `json:"share"`
}

// Straggler is one request past its function's p99, with its blame.
type Straggler struct {
	Func    string     `json:"func"`
	Req     int        `json:"req"`
	Arrival float64    `json:"arrival"`
	Latency float64    `json:"latency"`
	Outcome string     `json:"outcome"`
	Comp    Components `json:"components"`
	// Top is the straggler's own dominant component — the thing that
	// made this specific request slow.
	Top string `json:"top"`
}

// Report is one run's complete analytics snapshot. Field order is the
// JSON output order; every collection is sorted, so identical recorder
// contents serialise byte-identically.
type Report struct {
	Requests    int          `json:"requests"`
	Blame       []FuncBlame  `json:"blame"`
	Stragglers  []Straggler  `json:"stragglers"`
	Drift       []DriftEntry `json:"drift"`
	DriftEvents []DriftEvent `json:"driftEvents"`
	Burn        []BurnStatus `json:"burn"`
	BurnAlerts  []BurnAlert  `json:"burnAlerts"`
}

// WriteJSON writes the report as indented JSON. Output is
// deterministic: structs fix field order and all slices are sorted.
func (rp *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rp)
}

// Analyze runs the full pass — critical-path reconstruction, blame
// aggregation, straggler extraction, drift detection, burn-rate replay —
// over a finished recorder. The recorder is read, never mutated.
func Analyze(_ Config, rec *obs.Recorder) *Report {
	paths := Reconstruct(rec)
	rp := &Report{Requests: len(paths)}
	rp.Blame, rp.Stragglers = blame(paths, stragglerLimit)
	rp.Drift, rp.DriftEvents = drift(rec)
	rp.Burn, rp.BurnAlerts = burn(rec)
	return rp
}

// blameAcc accumulates one function's component histograms.
type blameAcc struct {
	n       int
	sum     Components
	sumLat  float64
	latHist *obs.Histogram
	hists   map[string]*obs.Histogram // by component name
	p99     float64                   // P99Latency, once the blame table is built
}

// blame builds the per-function blame tables and the straggler report.
func blame(paths []RequestPath, stragglerLimit int) ([]FuncBlame, []Straggler) {
	accs := map[string]*blameAcc{}
	for _, p := range paths {
		a, ok := accs[p.Name]
		if !ok {
			a = &blameAcc{latHist: obs.NewLatencyHistogram(), hists: map[string]*obs.Histogram{}}
			for _, name := range ComponentNames {
				a.hists[name] = obs.NewLatencyHistogram()
			}
			accs[p.Name] = a
		}
		a.n++
		a.sumLat += p.Latency()
		a.latHist.Observe(p.Latency())
		a.sum.Queue += p.Comp.Queue
		a.sum.Load += p.Comp.Load
		a.sum.Exec += p.Comp.Exec
		a.sum.Transfer += p.Comp.Transfer
		a.sum.Retry += p.Comp.Retry
		for _, name := range ComponentNames {
			a.hists[name].Observe(p.Comp.byName(name))
		}
	}

	fns := make([]string, 0, len(accs))
	for fn := range accs {
		fns = append(fns, fn)
	}
	sort.Strings(fns)

	blames := make([]FuncBlame, 0, len(fns))
	for _, fn := range fns {
		a := accs[fn]
		inv := 1 / float64(a.n)
		fb := FuncBlame{
			Func: fn, Requests: a.n,
			MeanLatency: a.sumLat * inv,
			P99Latency:  a.latHist.Quantile(0.99),
			Mean: Components{
				Queue: a.sum.Queue * inv, Load: a.sum.Load * inv,
				Exec: a.sum.Exec * inv, Transfer: a.sum.Transfer * inv,
				Retry: a.sum.Retry * inv,
			},
		}
		quant := func(q float64) Components {
			return Components{
				Queue:    a.hists["queue"].Quantile(q),
				Load:     a.hists["load"].Quantile(q),
				Exec:     a.hists["exec"].Quantile(q),
				Transfer: a.hists["transfer"].Quantile(q),
				Retry:    a.hists["retry"].Quantile(q),
			}
		}
		fb.P50, fb.P95, fb.P99 = quant(0.50), quant(0.95), quant(0.99)
		fb.Dominant = fb.Mean.Dominant()
		if fb.MeanLatency > 0 {
			fb.Share = fb.Mean.byName(fb.Dominant) / fb.MeanLatency
		}
		blames = append(blames, fb)
		a.p99 = fb.P99Latency
	}

	// Stragglers are the requests past their function's P99. The sort
	// below is a total order, so the order they are found in is moot.
	var stragglers []Straggler
	for _, p := range paths {
		if p.Latency() > accs[p.Name].p99 {
			stragglers = append(stragglers, Straggler{
				Func: p.Name, Req: p.Req, Arrival: p.Arrival,
				Latency: p.Latency(), Outcome: p.Outcome,
				Comp: p.Comp, Top: p.Comp.Dominant(),
			})
		}
	}
	// Worst first; ties in (func, req) order for determinism.
	sort.Slice(stragglers, func(i, j int) bool {
		if stragglers[i].Latency != stragglers[j].Latency {
			return stragglers[i].Latency > stragglers[j].Latency
		}
		if stragglers[i].Func != stragglers[j].Func {
			return stragglers[i].Func < stragglers[j].Func
		}
		return stragglers[i].Req < stragglers[j].Req
	})
	if len(stragglers) > stragglerLimit {
		stragglers = stragglers[:stragglerLimit]
	}
	return blames, stragglers
}

// drift replays exec spans carrying a declared profile through the EWMA
// tracker, in record order (the simulation's causal order), keyed by
// the function names bound to the recorder.
func drift(rec *obs.Recorder) ([]DriftEntry, []DriftEvent) {
	tr := NewDriftTracker()
	var events []DriftEvent
	for sp := range rec.Spans() {
		if sp.Kind != obs.KindSlice || sp.Cat != "exec" || sp.Declared <= 0 {
			continue
		}
		k := DriftKey{Func: rec.FuncName(sp.Func), Stage: sp.Stage, Slice: sp.Detail}
		if ev := tr.Observe(sp.End, k, sp.End-sp.Start, sp.Declared); ev != nil {
			events = append(events, *ev)
		}
	}
	return tr.Entries(), events
}

// burn replays the finalised requests (in completion order, so times
// are non-decreasing) through the burn monitor. A request misses when
// it has an SLO and did not meet it.
func burn(rec *obs.Recorder) ([]BurnStatus, []BurnAlert) {
	m := NewBurnMonitor()
	for _, r := range rec.Requests() {
		m.Observe(rec.FuncName(r.Func), r.Completion, r.SLO > 0 && !r.SLOHit())
	}
	return m.Status(), m.Alerts()
}
