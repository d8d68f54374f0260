package experiments

import (
	"fmt"
	"sort"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/metrics"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/platform"
	"fluidfaas/internal/scheduler"
	"fluidfaas/internal/trace"
)

// This file is the model-density study for the swap tier (ROADMAP §3):
// how many distinct models a small testbed can serve per GPU at
// acceptable SLO attainment, with the host-memory pool managed by the
// swap tier versus the legacy per-binding accounting. The workload is a
// phased rotation — model registrations far exceeding host memory, but
// a working set per phase that fits — so the tier's LRU eviction and
// parked-copy swap-ins are exactly what keeps late-registered models
// warm.

// Density-study testbed: one node with two default-partitioned GPUs and
// host memory sized so the bulk of the census fits as pool copies but
// the largest census overflows — the top of the sweep genuinely
// exercises LRU eviction.
const (
	swapGPUs      = 2
	swapHostMemGB = 320
	// swapKeepAlive shortens the keep-alive window (both modes, so the
	// comparison is fair) to less than the larger censuses' group-return
	// period. Legacy warmth is time-based: a model idle past the window
	// is forgotten and reloads cold even though host memory is free. The
	// swap tier's warmth is space-based: the copy stays materialised in
	// the pool until eviction, so the same return is a cheap swap-in.
	// That gap — time-bounded vs capacity-bounded retention — is what
	// model density measures.
	swapKeepAlive = 150.0
	// swapIdleDemote shortens the exclusive-instance idle-demote window
	// (both modes) so an outgoing group's instances release their slices
	// near the phase hand-off instead of pinning them a third of the way
	// into the next phase.
	swapIdleDemote = 5.0
	// Phased rotation with a fixed working set: the census splits into
	// groups of swapGroup models, and the groups take turns — every run
	// spans exactly swapPhases phases of swapPhaseLen seconds, cycling
	// through the groups, each driving its 4 models at swapModelRPS with
	// staggered starts. Every census point runs the identical per-phase
	// dynamics and the same number of group hand-offs (the single-group
	// baseline idles alternate phases so its group, too, cools off and
	// must reload on return); only the accumulated host-memory history
	// differs — which is precisely what the study measures.
	swapGroup    = 4
	swapPhases   = 8
	swapPhaseLen = 60.0
	swapModelRPS = 0.5
	// swapSLOScale sets the density study's SLO between a warm load
	// (model already in the host pool, ~1.6 s for a medium app) and a
	// true cold start (~10 s): a reload from the pool can meet the SLO,
	// a pool miss cannot. That is the regime where host-memory
	// management decides attainment.
	swapSLOScale = 6.0
	// swapBaselineFrac is the SLO-attainment bar: a census counts as
	// served when its hit rate is at least this fraction of the
	// attainment the legacy system (tier off) delivers at the smallest
	// census — one absolute bar, applied to both modes.
	swapBaselineFrac = 0.95
)

// swapCensus is the model counts the sweep visits. Group-return
// periods: 120 s at n≤8 (inside the keep-alive window — both modes
// warm), 180–300 s beyond (outside it — only the pool remembers). The
// top census overflows the pool (20 × ~19 GB > 320 GB), so eviction
// and refetch show up in the on-mode numbers too.
var swapCensus = []int{4, 8, 12, 16, 20}

// SwapPoint is one census point of the density sweep.
type SwapPoint struct {
	// Models is the registered model count; PerGPU is Models/GPUs.
	Models int     `json:"models"`
	PerGPU float64 `json:"perGPU"`
	// SLO attainment with the swap tier on and off.
	SLOHitOn  float64 `json:"sloHitOn"`
	SLOHitOff float64 `json:"sloHitOff"`
	// Swap-tier activity of the on run.
	SwapIns   int     `json:"swapIns"`
	SwapOuts  int     `json:"swapOuts"`
	PoolOccOn float64 `json:"poolOccOn"`
	// Mean request latency, for the table.
	LatencyOn  float64 `json:"latencyOn"`
	LatencyOff float64 `json:"latencyOff"`
}

// SwapResult is the density study outcome.
type SwapResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	GPUs      int     `json:"gpus"`
	HostMemGB float64 `json:"hostMemGB"`

	Points []SwapPoint `json:"points"`

	// Baseline is the legacy system's smallest-census SLO attainment,
	// the reference both modes are held to.
	Baseline float64 `json:"baseline"`
	// DensityOn/Off are models-per-GPU at the largest census that the
	// mode still serves at ≥ swapBaselineFrac·Baseline, requiring every
	// smaller census to pass too (a census that only "recovers" after a
	// failing one does not count); DensityGain is their ratio.
	DensityOn   float64 `json:"densityOn"`
	DensityOff  float64 `json:"densityOff"`
	DensityGain float64 `json:"densityGain"`
}

// swapSpecs replicates the first three medium applications into n
// distinct registered models ("census"): model i is a fresh copy of app
// i%3 under a unique name, so each has its own keep-alive state and its
// own host-pool reservation.
func swapSpecs(n int, sloScale float64) []platform.FunctionSpec {
	apps := appsFor(Medium)[:3]
	v := Medium.Variant()
	specs := make([]platform.FunctionSpec, 0, n)
	for i := 0; i < n; i++ {
		a := apps[i%len(apps)]
		d := a.BuildDAG(v)
		parts, err := d.EnumeratePartitions(mig.Slice7g)
		if err != nil {
			panic(err)
		}
		slo, ok := a.SLOLatency(v, sloScale)
		if !ok {
			panic(fmt.Sprintf("experiments: no SLO for %s/%s", a.Name, v))
		}
		specs = append(specs, platform.FunctionSpec{
			ID: i, Name: fmt.Sprintf("%s@%d", a.Name, i), DAG: d, Parts: parts, SLO: slo,
		})
	}
	return specs
}

// swapTrace builds the phased-rotation trace: the n models split into
// groups of swapGroup that take turns over swapPhases fixed phases, one
// group per phase at swapModelRPS per model with staggered starts. Any
// single phase's working set fits the host pool; a large census in
// total does not — exactly the managed-pool regime. The single-group
// baseline cycles group/idle so every census, baseline included, pays
// the same per-phase reload transition. Fully deterministic — no
// sampling — so on/off runs see byte-identical arrivals.
func swapTrace(n int) *trace.Trace {
	groups := (n + swapGroup - 1) / swapGroup
	cycle := groups
	if cycle < 2 {
		cycle = 2
	}
	interval := 1 / swapModelRPS
	var reqs []trace.Request
	for p := 0; p < swapPhases; p++ {
		g := p % cycle
		if g >= groups {
			continue // idle phase: the baseline group cools off
		}
		start := float64(p) * swapPhaseLen
		for k := 0; k < swapGroup; k++ {
			m := g*swapGroup + k
			if m >= n {
				break
			}
			offset := start + float64(k)*interval/float64(swapGroup)
			for t := offset; t < start+swapPhaseLen; t += interval {
				reqs = append(reqs, trace.Request{Func: m, Arrival: t})
			}
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool {
		if reqs[i].Arrival != reqs[j].Arrival {
			return reqs[i].Arrival < reqs[j].Arrival
		}
		return reqs[i].Func < reqs[j].Func
	})
	for i := range reqs {
		reqs[i].ID = i
	}
	return &trace.Trace{
		Requests: reqs,
		Duration: swapPhases * swapPhaseLen,
		NumFuncs: n,
	}
}

// runDensity executes one census point: n models on the density testbed
// with the swap tier configured by sw.
func runDensity(n int, cfg Config, sw platform.SwapOptions) *platform.Platform {
	cfg.Spec = cluster.Spec{
		Nodes:      1,
		GPUConfigs: mig.UniformNode(mig.DefaultConfig, swapGPUs),
		CPUMemGB:   swapHostMemGB,
	}
	cfg.Policy = &scheduler.FluidFaaS{}
	cfg.Swap = sw
	cfg.KeepAlive, cfg.IdleDemote = swapKeepAlive, swapIdleDemote
	_, p := cfg.run(swapSpecs(n, swapSLOScale), swapTrace(n))
	return p
}

// swapDensity is the served-census verdict: models-per-GPU at the
// largest census whose hit rate holds swapBaselineFrac of the legacy
// baseline, with every smaller census passing too.
func swapDensity(points []SwapPoint, baseline float64, hit func(SwapPoint) float64) float64 {
	best := 0.0
	for _, pt := range points {
		if hit(pt) < swapBaselineFrac*baseline {
			break
		}
		best = pt.PerGPU
	}
	return best
}

// RunSwap runs the swap-tier density study.
func RunSwap(cfg Config) SwapResult {
	cfg = cfg.withDefaults()
	res := SwapResult{
		Workload:  Medium.String(),
		Seed:      cfg.Seed,
		GPUs:      swapGPUs,
		HostMemGB: swapHostMemGB,
	}

	// Density sweep: each census on/off. The sweep uses its own phased
	// trace and testbed (fixed duration), independent of cfg.Duration.
	for _, n := range swapCensus {
		on := runDensity(n, cfg, platform.SwapOptions{Enabled: true})
		offP := runDensity(n, cfg, platform.SwapOptions{})
		onLats := on.Collector().Latencies()
		offLats := offP.Collector().Latencies()
		res.Points = append(res.Points, SwapPoint{
			Models:     n,
			PerGPU:     float64(n) / swapGPUs,
			SLOHitOn:   on.Collector().SLOHitRate(),
			SLOHitOff:  offP.Collector().SLOHitRate(),
			SwapIns:    on.SwapIns(),
			SwapOuts:   on.SwapOuts(),
			PoolOccOn:  on.HostPoolOcc.Mean(),
			LatencyOn:  metrics.Percentile(onLats, 50),
			LatencyOff: metrics.Percentile(offLats, 50),
		})
	}
	res.Baseline = res.Points[0].SLOHitOff
	res.DensityOn = swapDensity(res.Points, res.Baseline, func(p SwapPoint) float64 { return p.SLOHitOn })
	res.DensityOff = swapDensity(res.Points, res.Baseline, func(p SwapPoint) float64 { return p.SLOHitOff })
	if res.DensityOff > 0 {
		res.DensityGain = res.DensityOn / res.DensityOff
	}
	return res
}

// SwapTable renders the density study.
func SwapTable(r SwapResult) Table {
	t := Table{
		Title: fmt.Sprintf("Swap tier density: models per GPU, %d GPUs, %.0f GB host pool",
			r.GPUs, r.HostMemGB),
		Header: []string{"models", "per-GPU", "SLO on", "SLO off", "p50 on", "p50 off", "swap in/out", "pool occ"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			itoa(p.Models), f1(p.PerGPU), pct(p.SLOHitOn), pct(p.SLOHitOff),
			f2(p.LatencyOn), f2(p.LatencyOff),
			itoa(p.SwapIns) + "/" + itoa(p.SwapOuts), pct(p.PoolOccOn),
		})
	}
	t.Rows = append(t.Rows,
		[]string{"density on", f1(r.DensityOn) + " models/GPU", "", "", "", "", "", ""},
		[]string{"density off", f1(r.DensityOff) + " models/GPU", "", "", "", "", "", ""},
		[]string{"density gain", f2(r.DensityGain) + "x", "", "", "", "", "", ""},
	)
	return t
}
