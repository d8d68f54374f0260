package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/experiments"
	"fluidfaas/internal/metrics"
	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/analytics"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/obs/util"
	"fluidfaas/internal/pipeline"
	"fluidfaas/internal/platform"
	"fluidfaas/internal/sim"
	"fluidfaas/internal/trace"
)

// cellDigest is a cell's simulated outcome: what the golden file pins,
// and what every rep of the same inputs must reproduce exactly.
type cellDigest struct {
	Cell       string            `json:"cell"`
	Duration   float64           `json:"duration_s"`
	Requests   int               `json:"requests"`
	Completed  int               `json:"completed"`
	Rejected   int               `json:"rejected"`
	SLOHits    int               `json:"slo_hits"`
	SLOHit     float64           `json:"slo_hit"`
	Throughput float64           `json:"throughput"`
	P50        float64           `json:"p50"`
	P95        float64           `json:"p95"`
	P99        float64           `json:"p99"`
	Breakdown  metrics.Breakdown `json:"breakdown"`
	GPUTime    float64           `json:"gpu_time"`
	MIGTime    float64           `json:"mig_time"`
	Launched   int               `json:"launched"`
	Evictions  int               `json:"evictions"`
	Migrations int               `json:"migrations"`
	Events     uint64            `json:"events"`
	Records    string            `json:"records_sha256"`
	Exports    map[string]string `json:"exports_sha256,omitempty"`
}

// recorders selects which observers a cell runs with. The export
// sequence runs only with all three attached, as in cmd/fluidfaas-sim.
type recorders struct{ obs, decisions, util bool }

var allRecorders = recorders{true, true, true}

type exportStat struct {
	dur   time.Duration
	bytes int64
	alloc uint64
}

// repAcc accumulates a rep's measurements over its cells. Timings of
// the phases are always taken (a few clock reads per cell); with traced
// set the policy is decorated and per-layer counters are collected.
type repAcc struct {
	traced bool

	setupTrace, setupSpecs, setupPlatform time.Duration
	run, summarize                        time.Duration
	exports                               map[string]exportStat
	exportTotal                           time.Duration
	decisionRecords                       int

	place                      []time.Duration
	placeTotal                 time.Duration
	requested, placed          int
	explored                   int
	baselinePlace, baselineRun time.Duration
	cellShare                  map[string]float64

	events       uint64
	peakHeap     int
	replay       time.Duration
	replayEvents uint64
	planner      pipeline.PlannerStats

	requests, completed, rejected, timeouts int
	launched, evictions, migrations, bus    int
	faults, retries, overloadRejected       int
	quarantines, hedges, swapIns            int
}

func (a *repAcc) setup() time.Duration { return a.setupTrace + a.setupSpecs + a.setupPlatform }

// wall is the timed simulation: Platform.Run, the result summary and,
// on the observed workload, the exports.
func (a *repAcc) wall() time.Duration { return a.run + a.summarize + a.exportTotal }

// runCell runs one cell: set-up (trace, specs, cluster and platform),
// the simulation, the result summary and, with all recorders attached,
// the exports, each as its own span. It returns the cell's digest and
// an error when an invariant fails.
func runCell(c cell, rs recorders, t *tracer, acc *repAcc) (cellDigest, error) {
	defer t.begin("cell " + c.name())()
	cfg := c.cfg

	stop := t.begin("setup.trace")
	tr := experiments.TraceFor(c.level, cfg)
	acc.setupTrace += stop()

	stop = t.begin("setup.specs")
	specs := experiments.SpecsFor(c.level, cfg.SLOScale)
	acc.setupSpecs += stop()

	stop = t.begin("setup.platform")
	pol := newPolicy(c.system)
	var tp *timedPolicy
	if acc.traced {
		tp = &timedPolicy{Policy: pol}
		pol = tp
	}
	var (
		rec *obs.Recorder
		dec *decisions.Recorder
		led *util.Ledger
	)
	if rs.obs {
		rec = obs.NewRecorder()
	}
	if rs.decisions {
		dec = decisions.NewRecorder(0)
	}
	if rs.util {
		led = util.NewLedger()
	}
	cl := cluster.New(cluster.Spec{Nodes: cfg.Nodes, GPUConfigs: cfg.GPUConfigs, CPUMemGB: cfg.CPUMemGB})
	p := platform.New(cl, specs, platform.Options{
		Policy: pol, Seed: cfg.Seed, MaxBatch: cfg.MaxBatch, Routing: cfg.Routing,
		Faults: cfg.Faults, Overload: cfg.Overload, Swap: cfg.Swap, Gray: cfg.Gray,
		Obs: rec, Decisions: dec, Util: led,
	})
	acc.setupPlatform += stop()

	stop = t.begin("run")
	p.Run(tr, cfg.Drain)
	run := stop()
	acc.run += run

	stop = t.begin("summarize")
	d := summarize(c, p, cl)
	acc.summarize += stop()

	var err error
	if rs == allRecorders {
		d.Exports, err = exportAll(p, rec, dec, led, cfg.Duration, t, acc)
	}
	d.Records = hashRecords(p.Collector().Records())
	if e := checkRecords(p.Collector().Records(), len(tr.Requests)); e != nil && err == nil {
		err = e
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", c.name(), err)
	}

	if acc.traced {
		acc.collect(c, p, tp, run)
		rd, n := replayArrivals(tr, cfg.Duration+cfg.Drain)
		acc.replay += rd
		acc.replayEvents += n
		if place := tp.total(); place > run {
			err = fmt.Errorf("%s: PlaceBatch time %v exceeds the run span %v", c.name(), place, run)
		}
	}
	return d, err
}

// summarize computes the cell's result summary from the collector, as
// experiments.RunSystem does: percentiles, SLO hit, throughput, the
// latency breakdown and the resource times of Table 6.
func summarize(c cell, p *platform.Platform, cl *cluster.Cluster) cellDigest {
	col := p.Collector()
	lats := col.Latencies()
	hits := 0
	for _, r := range col.Records() {
		if r.SLOHit() {
			hits++
		}
	}
	end := c.cfg.Duration + c.cfg.Drain
	d := cellDigest{
		Cell:       c.name(),
		Duration:   c.cfg.Duration,
		Requests:   col.Len(),
		Completed:  col.Completed(),
		Rejected:   col.RejectedCount(),
		SLOHits:    hits,
		SLOHit:     col.SLOHitRate(),
		Throughput: col.Throughput(c.cfg.Duration),
		Breakdown:  col.MeanBreakdown(),
		GPUTime:    cl.GPUTime(end),
		MIGTime:    cl.MIGTime(end),
		Launched:   p.Launched(),
		Evictions:  p.Evictions(),
		Migrations: p.Migrations(),
		Events:     p.Engine().Stats().Executed,
	}
	if len(lats) > 0 { // percentiles of nothing are NaN, which JSON cannot carry
		d.P50 = metrics.Percentile(lats, 50)
		d.P95 = metrics.Percentile(lats, 95)
		d.P99 = metrics.Percentile(lats, 99)
	}
	return d
}

// collect adds a finished traced cell's per-layer counters.
func (a *repAcc) collect(c cell, p *platform.Platform, tp *timedPolicy, run time.Duration) {
	place := tp.total()
	a.place = append(a.place, tp.calls...)
	a.placeTotal += place
	a.requested += tp.requested
	a.placed += tp.placed
	a.explored += tp.explored
	if c.system != "fluidfaas" {
		a.baselinePlace += place
		a.baselineRun += run
	}
	if a.cellShare == nil {
		a.cellShare = map[string]float64{}
	}
	a.cellShare[c.name()] = place.Seconds() / run.Seconds()

	st := p.Engine().Stats()
	a.events += st.Executed
	a.peakHeap = max(a.peakHeap, st.PeakHeapDepth)
	a.planner.Add(p.PlannerStats())

	col := p.Collector()
	a.requests += col.Len()
	a.completed += col.Completed()
	a.rejected += col.RejectedCount()
	a.timeouts += col.TimeoutDropCount()
	a.launched += p.Launched()
	a.evictions += p.Evictions()
	a.migrations += p.Migrations()
	a.bus += p.TotalEvents()
	a.faults += p.FaultsInjected()
	a.retries += p.Retries()
	a.overloadRejected += p.Rejected()
	a.quarantines += p.Quarantines()
	a.hedges += p.Hedges()
	a.swapIns += p.SwapIns()
}

// layers returns the rep's per-layer metrics (names as in
// BENCHMARK.json, values in the units listed there).
func (a *repAcc) layers() map[string]float64 {
	run := a.run.Seconds()
	m := map[string]float64{
		"trace.generate_s": a.setupTrace.Seconds(),
		"dag.specs_s":      a.setupSpecs.Seconds(),
		"platform.new_s":   a.setupPlatform.Seconds(),

		"sim.events":              float64(a.events),
		"sim.peak_heap":           float64(a.peakHeap),
		"sim.events_per_s":        float64(a.events) / run,
		"sim.replay_ns_per_event": ratio(float64(a.replay.Nanoseconds()), float64(a.replayEvents)),

		"scheduler.place_s":        a.placeTotal.Seconds(),
		"scheduler.calls":          float64(len(a.place)),
		"scheduler.p99_us":         p99us(a.place),
		"scheduler.share":          a.placeTotal.Seconds() / run,
		"scheduler.place_ratio":    ratio(float64(a.placed), float64(a.requested)),
		"scheduler.baseline_share": ratio(a.baselinePlace.Seconds(), a.baselineRun.Seconds()),
		"scheduler.esg.explored":   float64(a.explored),

		"pipeline.lookups":  float64(a.planner.Lookups()),
		"pipeline.hit_rate": a.planner.HitRate(),
		"pipeline.walks":    float64(a.planner.Walks()),

		"platform.rest_s":     (a.run - a.placeTotal).Seconds(),
		"platform.requests":   float64(a.requests),
		"platform.completed":  float64(a.completed),
		"platform.rejected":   float64(a.rejected),
		"platform.timeouts":   float64(a.timeouts),
		"platform.launched":   float64(a.launched),
		"platform.evictions":  float64(a.evictions),
		"platform.migrations": float64(a.migrations),
		"platform.bus_events": float64(a.bus),
		"platform.retries":    float64(a.retries),

		"faults.injected":   float64(a.faults),
		"overload.rejected": float64(a.overloadRejected),
		"gray.quarantines":  float64(a.quarantines),
		"hedge.spawned":     float64(a.hedges),
		"swap.ins":          float64(a.swapIns),

		"metrics.summarize_s": a.summarize.Seconds(),
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// p99us is the 99th percentile of the PlaceBatch call times, in µs.
func p99us(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = us(d)
	}
	sort.Float64s(s)
	return metrics.Percentile(s, 99)
}

// replayArrivals pushes the trace's arrivals up front into a bare
// engine with no-op callbacks, exactly as Platform.Run schedules them,
// and drains it: the kernel's cost for the arrival stream alone.
func replayArrivals(tr *trace.Trace, end float64) (time.Duration, uint64) {
	start := time.Now()
	e := sim.NewEngine()
	noop := func() {}
	for _, r := range tr.Requests {
		e.At(r.Arrival, noop)
	}
	e.RunUntil(end)
	return time.Since(start), e.Executed()
}

// checkRecords checks that each trace request is recorded exactly once.
func checkRecords(recs []metrics.RequestRecord, n int) error {
	if len(recs) != n {
		return fmt.Errorf("%d records for %d trace requests", len(recs), n)
	}
	seen := make([]bool, n)
	for _, r := range recs {
		if r.ID < 0 || r.ID >= n || seen[r.ID] {
			return fmt.Errorf("request %d recorded twice or out of range", r.ID)
		}
		seen[r.ID] = true
	}
	return nil
}

// hashRecords is a sha256 over every field of every request record.
func hashRecords(recs []metrics.RequestRecord) string {
	h := sha256.New()
	b := make([]byte, 0, 128)
	f := func(x float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x)) }
	flag := func(x bool) {
		if x {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	for _, r := range recs {
		b = b[:0]
		b = binary.LittleEndian.AppendUint64(b, uint64(r.ID))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Func))
		f(r.Arrival)
		f(r.Completion)
		f(r.Queue)
		f(r.Load)
		f(r.Exec)
		f(r.Transfer)
		f(r.SLO)
		flag(r.Dropped)
		flag(r.Rejected)
		flag(r.Failed)
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Retries))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashWriter counts and hashes an export stream, then discards it.
type hashWriter struct {
	h hash.Hash
	n int64
}

func (w *hashWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return w.h.Write(b)
}

// exportAll runs the export sequence of cmd/fluidfaas-sim into hashing
// discard writers: Chrome trace, Prometheus, the util ledger's check,
// report and JSON, the span analytics, and the decision export (frozen
// first when the analytics page on an SLO burn). It returns the sha256
// of each stream.
func exportAll(p *platform.Platform, rec *obs.Recorder, dec *decisions.Recorder, led *util.Ledger,
	duration float64, t *tracer, acc *repAcc) (map[string]string, error) {
	if acc.exports == nil {
		acc.exports = map[string]exportStat{}
	}
	hashes := map[string]string{}
	step := func(name string, fn func(io.Writer) error) error {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		stop := t.begin("export." + name)
		w := &hashWriter{h: sha256.New()}
		err := fn(w)
		d := stop()
		runtime.ReadMemStats(&m1)
		acc.exportTotal += d
		st := acc.exports[name]
		st.dur += d
		st.bytes += w.n
		st.alloc += m1.TotalAlloc - m0.TotalAlloc
		acc.exports[name] = st
		if w.n > 0 {
			hashes[name] = hex.EncodeToString(w.h.Sum(nil))
		}
		if err != nil {
			return fmt.Errorf("export %s: %w", name, err)
		}
		return nil
	}

	rec.SetGauge("fluidfaas_events_dropped", float64(p.DroppedEvents()))
	rec.SetGauge("fluidfaas_events_published_total", float64(p.TotalEvents()))
	if err := step("chrome", func(w io.Writer) error { return obs.WriteChromeTrace(w, rec) }); err != nil {
		return hashes, err
	}
	if err := step("prom", func(w io.Writer) error { return obs.WritePrometheus(w, rec) }); err != nil {
		return hashes, err
	}
	var report *util.Report
	if err := step("util.report", func(io.Writer) error {
		if err := led.Check(); err != nil {
			return err
		}
		report = led.Report()
		return nil
	}); err != nil {
		return hashes, err
	}
	if err := step("util", report.WriteJSON); err != nil {
		return hashes, err
	}
	var pages int
	if err := step("analytics", func(io.Writer) error {
		for _, b := range analytics.Analyze(analytics.Config{}, rec).Burn {
			pages += b.Pages
		}
		return nil
	}); err != nil {
		return hashes, err
	}
	err := step("decisions", func(w io.Writer) error {
		if pages > 0 {
			dec.Freeze(duration, fmt.Sprintf("slo-burn: %d pages", pages))
		}
		return dec.WriteJSON(w)
	})
	acc.decisionRecords += dec.Total()
	return hashes, err
}
