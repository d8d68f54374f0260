// Package experiments contains one runner per table and figure of the
// paper's evaluation (§6–§7), producing the same rows and series the
// paper reports. See DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/faults"
	"fluidfaas/internal/metrics"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/obs/util"
	"fluidfaas/internal/overload"
	"fluidfaas/internal/platform"
	"fluidfaas/internal/scheduler"
	"fluidfaas/internal/sim"
	"fluidfaas/internal/trace"
)

// Workload is one of the paper's three workload levels (§6): the level
// selects the application variant (light=small, medium=medium,
// heavy=large) and the invocation intensity.
type Workload int

// The three workload levels.
const (
	Light Workload = iota
	Medium
	Heavy
)

// Workloads lists all levels.
var Workloads = []Workload{Light, Medium, Heavy}

// String returns the level name.
func (w Workload) String() string {
	switch w {
	case Light:
		return "light"
	case Medium:
		return "medium"
	case Heavy:
		return "heavy"
	}
	return fmt.Sprintf("Workload(%d)", int(w))
}

// Variant returns the application variant the level uses.
func (w Workload) Variant() dnn.Variant {
	switch w {
	case Light:
		return dnn.Small
	case Medium:
		return dnn.Medium
	default:
		return dnn.Large
	}
}

// appRPS returns the per-application mean request rates of the level,
// calibrated against the 2-node/16-GPU default testbed so that the
// paper's regimes reproduce: light leaves headroom everywhere, medium
// exceeds what the baselines can serve without the 1g slices (with the
// expanded app - whose baseline needs a 4g slice - invoked hardest, as
// in the Azure trace's skewed per-function rates), and heavy exceeds
// the baselines' 4g-only capacity.
func (w Workload) appRPS() []float64 {
	switch w {
	case Light:
		return []float64{5, 5, 5, 5}
	case Medium:
		return []float64{8, 8, 8, 10}
	default:
		return []float64{11, 11, 11}
	}
}

// Config parameterises an experiment run.
type Config struct {
	// Seed drives trace generation and platform randomness.
	Seed int64
	// Duration is the trace length in seconds (default 300).
	Duration float64
	// Drain is extra time for in-flight requests (default 40).
	Drain float64
	// SLOScale is the SLO latency over the reference latency
	// (default 1.5, §6).
	SLOScale float64
	// GPUConfigs is the per-GPU partition layout of each node
	// (default: the paper's 4g+2g+1g on all 8 GPUs).
	GPUConfigs []mig.Config
	// Nodes is the node count (default 2).
	Nodes int
	// MaxBatch enables dynamic batching at instances (1 = off, the
	// paper's configuration).
	MaxBatch int
	// RateScale multiplies every stream's request rate (default 1);
	// extension studies use it to push systems past saturation.
	RateScale float64
	// Routing overrides the load balancer's instance ordering (for the
	// routing ablation; default is the paper's latency-ascending).
	Routing platform.RoutingOrder
	// Faults injects a deterministic hardware-fault schedule (nil = the
	// paper's fault-free runs; used by the resilience extension study).
	Faults *faults.Spec
	// Overload enables the overload-control subsystem (zero = off, the
	// paper's configuration; used by the overload extension study).
	Overload overload.Config
	// Swap enables the model-swapping memory tier (zero = off, the
	// paper's configuration; used by the density extension study).
	Swap platform.SwapOptions
	// Gray enables the gray-failure resilience subsystem — slice health
	// scoring, quarantine and hedged retries (zero = off, the paper's
	// configuration; used by the gray-failure extension study).
	Gray platform.GrayOptions
	// CPUMemGB is the host memory per node (default 1440, paper Table 3;
	// the density study constrains it to put the pool under pressure).
	CPUMemGB float64
	// Obs attaches an observability recorder to the run (nil = off, the
	// zero-cost default). The recorder fills with request traces, slice
	// spans and metrics for the Chrome-trace / Prometheus exporters.
	Obs *obs.Recorder
	// Decisions attaches a decision-provenance recorder (nil = off, the
	// zero-cost default): every scheduling choice point logs the inputs
	// it saw and the outcome it chose, queryable per request after the
	// run ("why did request N end up there?").
	Decisions *decisions.Recorder
	// Util attaches a GPU utilization ledger (nil = off, the zero-cost
	// default): a pure observer that attributes every slice-second to a
	// busy/idle/waste state, with fragmentation analytics and roll-ups
	// (the /util and /heatmap endpoints).
	Util *util.Ledger
	// OnEvent subscribes to the platform's lifecycle event bus before
	// the run starts, seeing every event losslessly. Subscribers must
	// only observe.
	OnEvent func(platform.Event)
	// OnPlatform, when set, observes the finished platform after the run
	// (before RunSystem returns), e.g. to take an introspection
	// Snapshot. Observers must not mutate the platform.
	OnPlatform func(*platform.Platform)
	// TransferScale multiplies every stage-boundary hop cost (0 = 1,
	// the paper's cost model); the transfer-sensitivity ablation sweeps
	// it. Applied per-run to the freshly built DAGs, never globally.
	TransferScale float64
}

func (c Config) withDefaults() Config {
	if c.Duration <= 0 {
		c.Duration = 300
	}
	if c.Drain <= 0 {
		c.Drain = 40
	}
	if c.SLOScale <= 0 {
		c.SLOScale = 1.5
	}
	if c.GPUConfigs == nil {
		c.GPUConfigs = mig.UniformNode(mig.DefaultConfig, 8)
	}
	if c.Nodes <= 0 {
		c.Nodes = 2
	}
	if c.RateScale <= 0 {
		c.RateScale = 1
	}
	if c.CPUMemGB <= 0 {
		c.CPUMemGB = 1440
	}
	return c
}

// FinitePositive reports whether v is a finite number above 0, the
// rule every numeric CLI argument that scales a run must pass: NaN
// fails every comparison and would otherwise slip past a v <= 0 check.
func FinitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// CheckDuration rejects a trace duration a command line must not run:
// zero, negative, NaN or infinite. Config reads a non-positive Duration
// as unset and runs the 300 s default, so a -duration flag is checked
// before it reaches Config.
func CheckDuration(d float64) error {
	if !FinitePositive(d) {
		return fmt.Errorf("invalid -duration %v: want a finite number of seconds above 0", d)
	}
	return nil
}

// DefaultConfig returns the paper's evaluation setup.
func DefaultConfig() Config { return Config{Seed: 42}.withDefaults() }

// Systems returns the three compared systems in paper order.
func Systems() []scheduler.Policy {
	return []scheduler.Policy{&scheduler.INFlessMIG{}, &scheduler.ESG{}, &scheduler.FluidFaaS{}}
}

// appsFor lists the applications active at a workload level (App 3's
// large variant is excluded from the study, Table 5).
func appsFor(w Workload) []dnn.App {
	var out []dnn.App
	for _, a := range dnn.Apps() {
		if a.Excluded(w.Variant()) {
			continue
		}
		out = append(out, a)
	}
	return out
}

// SpecsFor builds the platform function specs of a workload level.
func SpecsFor(w Workload, sloScale float64) []platform.FunctionSpec {
	var out []platform.FunctionSpec
	for _, a := range appsFor(w) {
		v := w.Variant()
		d := a.BuildDAG(v)
		parts, err := d.EnumeratePartitions(mig.Slice7g)
		if err != nil {
			panic(err)
		}
		slo, ok := a.SLOLatency(v, sloScale)
		if !ok {
			panic(fmt.Sprintf("experiments: no SLO for %s/%s", a.Name, v))
		}
		out = append(out, platform.FunctionSpec{
			ID: len(out), Name: a.Name, DAG: d, Parts: parts, SLO: slo,
		})
	}
	return out
}

// TraceFor generates the workload trace: Azure-like modulation with
// bursts (§6 uses the Azure Functions production traces for invocation
// frequencies and intervals).
func TraceFor(w Workload, cfg Config) *trace.Trace {
	cfg = cfg.withDefaults()
	apps := appsFor(w)
	rates := w.appRPS()
	var streams []trace.StreamSpec
	for i := range apps {
		streams = append(streams, trace.StreamSpec{
			Func:          i,
			MeanRPS:       rates[i] * cfg.RateScale,
			RateSigma:     0.30,
			BurstFactor:   1.6,
			BurstFraction: 0.12,
			BurstLen:      25,
		})
	}
	return trace.Generate(trace.Spec{
		Duration: cfg.Duration,
		Seed:     cfg.Seed + int64(w)*1000,
		Streams:  streams,
	})
}

// SystemResult summarises one (system, workload) run.
type SystemResult struct {
	System   string
	Workload Workload

	SLOHit      float64
	SLOHitByApp map[int]float64
	Throughput  float64
	Completed   int
	Total       int

	LatencyP50 float64
	LatencyP95 float64
	LatencyP99 float64
	CDFByApp   map[int][]metrics.CDFPoint

	Breakdown metrics.Breakdown
	GPUTime   float64
	MIGTime   float64

	UtilGPCs      metrics.Timeline
	OccupiedGPCs  metrics.Timeline
	Fragmentation metrics.Timeline

	Evictions  int
	Migrations int
	Launched   int

	// Overload-study outcome: SLO-meeting completions per second, the
	// fast-fail/timeout split of the lost requests, and Jain fairness
	// over per-app SLO hit rates.
	Goodput      float64
	Fairness     float64
	Rejected     int
	TimeoutDrops int

	// Fault-run outcome: the fraction of requests that did not fail on
	// faulted hardware, and the retry/teardown activity behind it.
	Availability float64
	FailedCount  int
	RetriedCount int
	TotalRetries int
	Faults       int
	Recoveries   int
	Retries      int

	// EventsTotal counts every lifecycle event the run published and
	// EventsDropped how many the platform's bounded ring overwrote
	// (Config.OnEvent sees them all).
	EventsTotal   int
	EventsDropped int

	// Engine is the sim engine's self-telemetry: events processed,
	// wall-clock processing rate, peak heap depth, cancellations. The
	// wall-clock fields are the only nondeterministic values in the
	// result; fluidfaas-sim -engine-stats prints them, and they never
	// reach decision records or determinism-diffed exports.
	Engine sim.Stats
}

// RunSystem executes one (policy, workload) experiment.
func RunSystem(pol scheduler.Policy, w Workload, cfg Config) SystemResult {
	cfg = cfg.withDefaults()
	specs := SpecsFor(w, cfg.SLOScale)
	for i := range specs {
		if cfg.TransferScale > 0 {
			specs[i].DAG.TransferScale = cfg.TransferScale
		}
	}
	cl := cluster.New(cluster.Spec{
		Nodes:      cfg.Nodes,
		GPUConfigs: cfg.GPUConfigs,
		CPUMemGB:   cfg.CPUMemGB,
	})
	p := platform.New(cl, specs, platform.Options{
		Policy: pol, Seed: cfg.Seed, MaxBatch: cfg.MaxBatch, Routing: cfg.Routing,
		Faults: cfg.Faults, Overload: cfg.Overload, Swap: cfg.Swap, Gray: cfg.Gray,
		Obs: cfg.Obs, Decisions: cfg.Decisions, Util: cfg.Util,
	})
	if cfg.OnEvent != nil {
		p.EventBus().Subscribe(cfg.OnEvent)
	}
	tr := TraceFor(w, cfg)
	p.Run(tr, cfg.Drain)

	col := p.Collector()
	lats := col.Latencies()
	end := cfg.Duration + cfg.Drain
	res := SystemResult{
		System:        pol.Name(),
		Workload:      w,
		SLOHit:        col.SLOHitRate(),
		SLOHitByApp:   col.SLOHitRateByFunc(),
		Throughput:    col.Throughput(cfg.Duration),
		Completed:     col.Completed(),
		Total:         col.Len(),
		LatencyP50:    metrics.Percentile(lats, 50),
		LatencyP95:    metrics.Percentile(lats, 95),
		LatencyP99:    metrics.Percentile(lats, 99),
		CDFByApp:      map[int][]metrics.CDFPoint{},
		Breakdown:     col.MeanBreakdown(),
		GPUTime:       cl.GPUTime(end),
		MIGTime:       cl.MIGTime(end),
		UtilGPCs:      p.UtilGPCs,
		OccupiedGPCs:  p.OccupiedGPCs,
		Fragmentation: p.Fragmentation,
		Evictions:     p.Evictions(),
		Migrations:    p.Migrations(),
		Launched:      p.Launched(),
		Goodput:       col.Goodput(cfg.Duration),
		Rejected:      col.RejectedCount(),
		TimeoutDrops:  col.TimeoutDropCount(),
		Availability:  col.Availability(),
		FailedCount:   col.FailedCount(),
		RetriedCount:  col.RetriedCount(),
		TotalRetries:  col.TotalRetries(),
		Faults:        p.FaultsInjected(),
		Recoveries:    p.Recoveries(),
		Retries:       p.Retries(),
		EventsTotal:   p.TotalEvents(),
		EventsDropped: p.DroppedEvents(),
		Engine:        p.Engine().Stats(),
	}
	for f, ls := range col.LatenciesByFunc() {
		res.CDFByApp[f] = metrics.CDF(ls, 20)
	}
	// Jain fairness over per-app SLO hit rates, in dense app order for
	// determinism.
	hits := make([]float64, len(specs))
	for f, h := range res.SLOHitByApp {
		if f >= 0 && f < len(hits) {
			hits[f] = h
		}
	}
	res.Fairness = metrics.JainIndex(hits)
	if cfg.OnPlatform != nil {
		cfg.OnPlatform(p)
	}
	return res
}

// Table is a printable experiment result in the paper's row format.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func itoa(n int) string    { return fmt.Sprintf("%d", n) }
func pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }
