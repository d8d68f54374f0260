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
	"fluidfaas/internal/metrics"
	"fluidfaas/internal/mig"
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

// ParseWorkload returns the level whose String is name.
func ParseWorkload(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.String() == name {
			return w, true
		}
	}
	return 0, false
}

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

// Config parameterises an experiment run: the testbed, the platform's
// options and the run knobs below. Every run builds its cluster from
// Spec and its platform from Options. RunSystem sets Options.Policy from
// its argument, and the studies that fix their system (Figs. 3 and 5,
// chaining, swap) set it themselves, so a Policy set here is never read.
type Config struct {
	// Spec is the testbed (default: the paper's 2 nodes of 8 GPUs, each
	// 4g+2g+1g, with 1440 GB host memory).
	cluster.Spec
	// Options configures the platform (zero: the paper's configuration,
	// with every extension subsystem and observer off).
	platform.Options
	// Duration is the trace length in seconds (default 300).
	Duration float64
	// Drain is extra time for in-flight requests (default 40).
	Drain float64
	// SLOScale is the SLO latency over the reference latency
	// (default 1.5, §6).
	SLOScale float64
	// RateScale multiplies every stream's request rate (default 1);
	// extension studies use it to push systems past saturation.
	RateScale float64
	// OnEvent subscribes to the platform's lifecycle events
	// (Platform.Subscribe) before the run starts, seeing every event.
	// Subscribers must only observe.
	OnEvent func(platform.Event)
	// OnPlatform, when set, observes the finished platform after the
	// run, e.g. to take an introspection Snapshot. Observers must not
	// mutate the platform.
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
func DefaultConfig() Config {
	return Config{Options: platform.Options{Seed: 42}}.withDefaults()
}

// Systems returns the three compared systems in paper order.
func Systems() []scheduler.Policy {
	return []scheduler.Policy{&scheduler.INFlessMIG{}, &scheduler.ESG{}, &scheduler.FluidFaaS{}}
}

// SystemNamed returns a fresh instance of the compared system whose Name
// is name, or nil if there is none.
func SystemNamed(name string) scheduler.Policy {
	for _, pol := range Systems() {
		if pol.Name() == name {
			return pol
		}
	}
	return nil
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

	// EventsTotal counts every lifecycle event the run published.
	// EventsDropped is the deprecated Platform.DroppedEvents,
	// max(0, EventsTotal-4096): what the retired 4096-event ring would
	// have overwritten. Nothing is dropped; Config.OnEvent sees every
	// event.
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
	cfg.Policy = pol
	cl, p := cfg.run(specs, TraceFor(w, cfg))

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
	return res
}

// run builds the cluster from c.Spec and the platform from c.Options,
// subscribes c.OnEvent, replays tr with c.Drain of drain time and hands
// the finished platform to c.OnPlatform. Every run of the package goes
// through it.
func (c Config) run(specs []platform.FunctionSpec, tr *trace.Trace) (*cluster.Cluster, *platform.Platform) {
	cl := cluster.New(c.Spec)
	p := platform.New(cl, specs, c.Options)
	if c.OnEvent != nil {
		p.Subscribe(c.OnEvent)
	}
	p.Run(tr, c.Drain)
	if c.OnPlatform != nil {
		c.OnPlatform(p)
	}
	return cl, p
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
