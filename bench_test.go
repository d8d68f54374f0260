// Package fluidfaas holds the benchmark harness: one testing.B bench per
// table and figure of the paper's evaluation (DESIGN.md §4), plus the
// ablation benches for the design choices DESIGN.md §6 calls out. Each
// bench runs the corresponding experiment and reports the paper's
// headline quantity via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every result. Benches use a shortened trace (150 s) to
// keep the full sweep under a few minutes; cmd/fluidfaas-bench runs the
// full-length versions.
package fluidfaas

import (
	"fmt"
	"testing"

	"fluidfaas/internal/dag"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/experiments"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/obs/util"
	"fluidfaas/internal/pipeline"
	"fluidfaas/internal/platform"
	"fluidfaas/internal/scheduler"
	"fluidfaas/internal/sim"
)

func benchCfg() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Duration = 150
	cfg.Drain = 30
	return cfg
}

// BenchmarkFig3Motivation measures ESG's resource over-demand (paper:
// 167% at the 83rd second).
func BenchmarkFig3Motivation(b *testing.B) {
	var over float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunMotivation(benchCfg())
		over = r.PeakOverdemand
	}
	b.ReportMetric(over*100, "peak_overdemand_%")
}

// BenchmarkFig4Fragmentation exercises the fragmentation walk-through.
func BenchmarkFig4Fragmentation(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(experiments.RunFragmentation())
	}
	b.ReportMetric(float64(n), "cases")
}

// BenchmarkFig5KeepAlive measures the active share of occupied MIGs
// under exclusive keep-alive (paper: 16.1% average).
func BenchmarkFig5KeepAlive(b *testing.B) {
	var active, below float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Duration = 600
		r := experiments.RunKeepAlive(cfg)
		active = r.AvgActive
		below = r.FracBelow35
	}
	b.ReportMetric(active*100, "avg_active_%")
	b.ReportMetric(below*100, "time_below_35%_%")
}

// benchOne runs a single (policy, workload) experiment per iteration.
func benchOne(b *testing.B, pol scheduler.Policy, w experiments.Workload) experiments.SystemResult {
	b.Helper()
	var r experiments.SystemResult
	for i := 0; i < b.N; i++ {
		r = experiments.RunSystem(pol, w, benchCfg())
	}
	return r
}

// BenchmarkFig9SLO reports the SLO hit rates of Fig. 9 (FluidFaaS vs
// ESG, medium workload — the paper's headline gap).
func BenchmarkFig9SLO(b *testing.B) {
	ff := benchOne(b, &scheduler.FluidFaaS{}, experiments.Medium)
	esg := experiments.RunSystem(&scheduler.ESG{}, experiments.Medium, benchCfg())
	b.ReportMetric(ff.SLOHit*100, "fluid_slo_%")
	b.ReportMetric(esg.SLOHit*100, "esg_slo_%")
}

// BenchmarkFig10Throughput reports the heavy-workload throughput gain
// (paper: +75%).
func BenchmarkFig10Throughput(b *testing.B) {
	ff := benchOne(b, &scheduler.FluidFaaS{}, experiments.Heavy)
	esg := experiments.RunSystem(&scheduler.ESG{}, experiments.Heavy, benchCfg())
	b.ReportMetric(ff.Throughput, "fluid_rps")
	b.ReportMetric(esg.Throughput, "esg_rps")
	if esg.Throughput > 0 {
		b.ReportMetric(ff.Throughput/esg.Throughput, "gain_x")
	}
}

// BenchmarkFig11CDFHeavy reports P95 latency in the heavy workload
// (paper: FluidFaaS cuts P95 tail latency by >=50%).
func BenchmarkFig11CDFHeavy(b *testing.B) {
	ff := benchOne(b, &scheduler.FluidFaaS{}, experiments.Heavy)
	b.ReportMetric(ff.LatencyP95, "fluid_p95_s")
}

// BenchmarkFig12CDFMedium reports P95 latency in the medium workload.
func BenchmarkFig12CDFMedium(b *testing.B) {
	ff := benchOne(b, &scheduler.FluidFaaS{}, experiments.Medium)
	b.ReportMetric(ff.LatencyP95, "fluid_p95_s")
}

// BenchmarkFig13CDFLight reports P95 latency in the light workload.
func BenchmarkFig13CDFLight(b *testing.B) {
	ff := benchOne(b, &scheduler.FluidFaaS{}, experiments.Light)
	b.ReportMetric(ff.LatencyP95, "fluid_p95_s")
}

// BenchmarkFig14Breakdown reports the queue-vs-transfer trade (paper:
// FluidFaaS adds 10-40 ms transfer but removes most queueing).
func BenchmarkFig14Breakdown(b *testing.B) {
	ff := benchOne(b, &scheduler.FluidFaaS{}, experiments.Medium)
	esg := experiments.RunSystem(&scheduler.ESG{}, experiments.Medium, benchCfg())
	b.ReportMetric(ff.Breakdown.Transfer*1000, "fluid_transfer_ms")
	b.ReportMetric(ff.Breakdown.Queue*1000, "fluid_queue_ms")
	b.ReportMetric(esg.Breakdown.Queue*1000, "esg_queue_ms")
}

// BenchmarkTable6ResourceCost reports normalised GPU time (paper: ESG
// and INFless burn up to 17% more GPU time).
func BenchmarkTable6ResourceCost(b *testing.B) {
	ff := benchOne(b, &scheduler.FluidFaaS{}, experiments.Heavy)
	esg := experiments.RunSystem(&scheduler.ESG{}, experiments.Heavy, benchCfg())
	if ff.GPUTime > 0 {
		b.ReportMetric(esg.GPUTime/ff.GPUTime, "esg_gputime_norm")
		b.ReportMetric(esg.MIGTime/ff.MIGTime, "esg_migtime_norm")
	}
}

// BenchmarkFig15Partitions reports the FluidFaaS-over-ESG gain per
// partition scheme (paper: 1.70x Hybrid, 1.75x P1, 1.78x P2).
func BenchmarkFig15Partitions(b *testing.B) {
	var rs []experiments.PartitionResult
	for i := 0; i < b.N; i++ {
		rs = experiments.RunPartitions(benchCfg())
	}
	for _, r := range rs {
		b.ReportMetric(r.Gain, r.Scheme+"_gain_x")
	}
}

// BenchmarkFig16Utilization reports mean GPU utilisation in the heavy
// workload (paper: FluidFaaS +75% during bursts).
func BenchmarkFig16Utilization(b *testing.B) {
	ff := benchOne(b, &scheduler.FluidFaaS{}, experiments.Heavy)
	esg := experiments.RunSystem(&scheduler.ESG{}, experiments.Heavy, benchCfg())
	b.ReportMetric(ff.UtilGPCs.Mean()*100, "fluid_util_%")
	b.ReportMetric(esg.UtilGPCs.Mean()*100, "esg_util_%")
}

// --- Ablation benches (DESIGN.md §6) ---

// BenchmarkAblationCV compares the CV-ranked partition choice against a
// naive maximal split for the heavy image-classification pipeline: the
// balanced choice should sustain at least the naive throughput.
func BenchmarkAblationCV(b *testing.B) {
	a := dnn.Get(dnn.ImageClassification)
	d := a.BuildDAG(dnn.Medium)
	parts, err := d.EnumeratePartitions(mig.Slice7g)
	if err != nil {
		b.Fatal(err)
	}
	// One 2g and one 1g free: two distinct 2-stage splits fit, and only
	// the CV ranking picks the balanced one.
	free := []mig.SliceType{mig.Slice2g, mig.Slice1g}
	// Naive: walk the partitions worst-balanced first.
	reversed := make([]dag.Partition, len(parts))
	for i, p := range parts {
		reversed[len(parts)-1-i] = p
	}
	var ranked, naive pipeline.Plan
	for i := 0; i < b.N; i++ {
		var errC error
		ranked, _, errC = pipeline.Construct(d, parts, free, 0)
		if errC != nil {
			b.Fatal(errC)
		}
		naive, _, errC = pipeline.Construct(d, reversed, free, 0)
		if errC != nil {
			b.Fatal(errC)
		}
	}
	// The CV ranking optimises balance, which shows up as lower
	// unloaded latency for the chosen deployment.
	b.ReportMetric(ranked.Latency*1000, "ranked_latency_ms")
	b.ReportMetric(naive.Latency*1000, "naive_latency_ms")
	b.ReportMetric(ranked.CV, "ranked_cv")
	b.ReportMetric(naive.CV, "naive_cv")
}

// BenchmarkAblationEviction isolates hotness-aware eviction-based time
// sharing: FluidFaaS with and without it on the light workload, where
// time sharing carries the sub-threshold functions.
func BenchmarkAblationEviction(b *testing.B) {
	full := benchOne(b, &scheduler.FluidFaaS{}, experiments.Light)
	off := experiments.RunSystem(&scheduler.FluidFaaS{DisableTimeSharing: true}, experiments.Light, benchCfg())
	b.ReportMetric(full.SLOHit*100, "with_ts_slo_%")
	b.ReportMetric(off.SLOHit*100, "without_ts_slo_%")
	b.ReportMetric(float64(full.Evictions), "evictions")
	// Time sharing's payoff is occupancy, not SLO: idle functions stop
	// monopolising slices.
	occFull := full.OccupiedGPCs
	occOff := off.OccupiedGPCs
	b.ReportMetric(occFull.Mean()*100, "with_ts_occupied_%")
	b.ReportMetric(occOff.Mean()*100, "without_ts_occupied_%")
}

// BenchmarkAblationMigration isolates pipeline migration on the medium
// workload.
func BenchmarkAblationMigration(b *testing.B) {
	full := benchOne(b, &scheduler.FluidFaaS{}, experiments.Medium)
	off := experiments.RunSystem(&scheduler.FluidFaaS{DisableMigration: true}, experiments.Medium, benchCfg())
	b.ReportMetric(full.SLOHit*100, "with_migration_slo_%")
	b.ReportMetric(off.SLOHit*100, "without_migration_slo_%")
	b.ReportMetric(float64(full.Migrations), "migrations")
}

// BenchmarkAblationTransfer sweeps the stage-boundary transfer cost
// (x0.5 / x1 / x4): at the paper's costs the overhead is marginal
// against the queueing pipelines save (§7.3); at x4 the SLO filter
// starts rejecting pipelines and FluidFaaS degenerates toward the
// baselines.
func BenchmarkAblationTransfer(b *testing.B) {
	for _, scale := range []float64{0.5, 1, 4} {
		cfg := benchCfg()
		cfg.TransferScale = scale
		var r experiments.SystemResult
		for i := 0; i < b.N; i++ {
			r = experiments.RunSystem(&scheduler.FluidFaaS{}, experiments.Heavy, cfg)
		}
		switch scale {
		case 0.5:
			b.ReportMetric(r.SLOHit*100, "x0.5_slo_%")
		case 1:
			b.ReportMetric(r.SLOHit*100, "x1_slo_%")
		default:
			b.ReportMetric(r.SLOHit*100, "x4_slo_%")
		}
	}
}

// --- Extension studies ---

// BenchmarkExtensionIsolation compares strong (MIG) vs weak (MPS)
// isolation — Table 1's qualitative columns made quantitative.
func BenchmarkExtensionIsolation(b *testing.B) {
	var r experiments.IsolationResult
	for i := 0; i < b.N; i++ {
		r = experiments.RunIsolation(benchCfg())
	}
	b.ReportMetric(r.MPSMeanSlowdown, "mps_slowdown_x")
	b.ReportMetric(r.MPSExposureSeconds, "mps_exposure_pair_s")
	b.ReportMetric(r.MIGSLOHit*100, "mig_slo_%")
	b.ReportMetric(r.MPSSLOHit*100, "mps_slo_%")
}

// BenchmarkExtensionReconfig quantifies §2.2: repartitioning loses the
// requests that arrive during its multi-minute offline window.
func BenchmarkExtensionReconfig(b *testing.B) {
	var r experiments.ReconfigResult
	for i := 0; i < b.N; i++ {
		r = experiments.RunReconfig(benchCfg())
	}
	b.ReportMetric(float64(r.FluidServed), "fluid_served")
	b.ReportMetric(float64(r.ReconfigServed), "reconfig_served")
	b.ReportMetric(r.OfflineSeconds, "offline_s")
}

// BenchmarkExtensionSLOSweep sweeps the SLO scale on the medium
// workload.
func BenchmarkExtensionSLOSweep(b *testing.B) {
	var pts []experiments.SLOSweepPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.RunSLOSweep(benchCfg(), []float64{1.2, 1.5, 2.0})
	}
	for _, p := range pts {
		b.ReportMetric((p.FFSLOHit-p.ESGSLOHit)*100, fmt.Sprintf("delta_at_%.1fx_pp", p.Scale))
	}
}

// --- Microbenches of the core machinery ---

// BenchmarkSimEngine measures raw event throughput of the DES kernel.
func BenchmarkSimEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 1000 {
				e.After(1, tick)
			}
		}
		e.After(1, tick)
		e.Run()
	}
}

// BenchmarkPartitionEnumeration measures the offline CV-ranking step.
func BenchmarkPartitionEnumeration(b *testing.B) {
	a := dnn.Get(dnn.ExpandedClassification)
	d := a.BuildDAG(dnn.Medium)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.EnumeratePartitions(mig.Slice7g); err != nil {
			b.Fatal(err)
		}
	}
}

// baselineRound is one control-loop round for the baseline placement
// benches: two medium requests for each of four apps, each carrying its
// function's planner as the platform's requests do, over two 8-GPU
// default-partition nodes. In the empty shape every slice is free and
// everything places; in the saturated shape only the 1g slices are free
// and no medium function fits one, the round the control loop re-offers
// every tick on the paper workload.
func baselineRound(saturated bool) ([]scheduler.Req, []scheduler.NodeFree) {
	var reqs []scheduler.Req
	for i, id := range []dnn.AppID{dnn.ImageClassification, dnn.DepthRecognition,
		dnn.BackgroundElimination, dnn.ExpandedClassification} {
		a := dnn.Get(id)
		d := a.BuildDAG(dnn.Medium)
		parts, _ := d.EnumeratePartitions(mig.Slice7g)
		slo, _ := a.SLOLatency(dnn.Medium, 1.5)
		req := scheduler.Req{Func: i, DAG: d, Parts: parts, SLO: slo,
			Planner: pipeline.NewPlanner(d, parts, slo)}
		reqs = append(reqs, req, req)
	}
	var nodes []scheduler.NodeFree
	for n := 0; n < 2; n++ {
		var free []mig.SliceType
		for g := 0; g < 8; g++ {
			if saturated {
				free = append(free, mig.Slice1g)
			} else {
				free = append(free, mig.Slice4g, mig.Slice2g, mig.Slice1g)
			}
		}
		nodes = append(nodes, scheduler.NodeFree{Node: n, Free: free})
	}
	return reqs, nodes
}

// benchBaseline times pol's PlaceBatch on both baselineRound shapes.
func benchBaseline(b *testing.B, pol scheduler.Policy) {
	for _, shape := range []struct {
		name      string
		saturated bool
	}{{"empty", false}, {"saturated", true}} {
		b.Run(shape.name, func(b *testing.B) {
			reqs, nodes := baselineRound(shape.saturated)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := pol.PlaceBatch(reqs, nodes)
				if shape.saturated && len(got) != 0 {
					b.Fatalf("placed %d medium requests on 1g slices", len(got))
				}
				if !shape.saturated && len(got) != len(reqs) {
					b.Fatalf("placed %d of %d on empty nodes", len(got), len(reqs))
				}
			}
		})
	}
}

// BenchmarkESGPlaceBatch measures one A*-with-dual-blade-pruning
// scheduling round at realistic batch and cluster sizes.
func BenchmarkESGPlaceBatch(b *testing.B) {
	benchBaseline(b, &scheduler.ESG{})
}

// BenchmarkINFlessPlaceBatch measures one first-fit INFless scheduling
// round on the same shapes.
func BenchmarkINFlessPlaceBatch(b *testing.B) {
	benchBaseline(b, &scheduler.INFlessMIG{})
}

// BenchmarkFluidFaaSConstruct measures the invoker's pipeline
// construction step.
func BenchmarkFluidFaaSConstruct(b *testing.B) {
	a := dnn.Get(dnn.ExpandedClassification)
	d := a.BuildDAG(dnn.Medium)
	parts, _ := d.EnumeratePartitions(mig.Slice7g)
	slo, _ := a.SLOLatency(dnn.Medium, 1.5)
	free := []mig.SliceType{mig.Slice2g, mig.Slice2g, mig.Slice1g, mig.Slice1g, mig.Slice1g}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := pipeline.Construct(d, parts, free, slo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerConstruct compares the invoker's construction step
// with and without the memoized planner on a steady free-slice view —
// the cached path is a signature lookup plus index binding.
func BenchmarkPlannerConstruct(b *testing.B) {
	a := dnn.Get(dnn.ExpandedClassification)
	d := a.BuildDAG(dnn.Medium)
	parts, _ := d.EnumeratePartitions(mig.Slice7g)
	slo, _ := a.SLOLatency(dnn.Medium, 1.5)
	free := []mig.SliceType{mig.Slice2g, mig.Slice2g, mig.Slice1g, mig.Slice1g, mig.Slice1g}
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := pipeline.Construct(d, parts, free, slo); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		pl := pipeline.NewPlanner(d, parts, slo)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := pl.Construct(free); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(pl.Stats().HitRate()*100, "hit_rate_%")
	})
}

// BenchmarkFluidFaaSPlaceBatch measures a FluidFaaS scheduling round at
// realistic batch and cluster sizes, with requests that carry no planner
// (PlaceBatch builds a fresh one per call, so every multiset walks once
// per round) and with planners that persist across rounds. The
// placements are identical; only the work per probe changes.
func BenchmarkFluidFaaSPlaceBatch(b *testing.B) {
	mkReqs := func() []scheduler.Req {
		var reqs []scheduler.Req
		for i, id := range []dnn.AppID{dnn.ImageClassification, dnn.DepthRecognition,
			dnn.BackgroundElimination, dnn.ExpandedClassification} {
			a := dnn.Get(id)
			d := a.BuildDAG(dnn.Medium)
			parts, _ := d.EnumeratePartitions(mig.Slice7g)
			slo, _ := a.SLOLatency(dnn.Medium, 1.5)
			req := scheduler.Req{Func: i, DAG: d, Parts: parts, SLO: slo}
			reqs = append(reqs, req, req)
		}
		return reqs
	}
	var nodes []scheduler.NodeFree
	for n := 0; n < 2; n++ {
		var free []mig.SliceType
		for g := 0; g < 8; g++ {
			free = append(free, mig.Slice4g, mig.Slice2g, mig.Slice1g)
		}
		nodes = append(nodes, scheduler.NodeFree{Node: n, Free: free})
	}
	pol := &scheduler.FluidFaaS{}
	b.Run("per_call_planner", func(b *testing.B) {
		reqs := mkReqs()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := pol.PlaceBatch(reqs, nodes); len(got) == 0 {
				b.Fatal("nothing placed")
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		reqs := mkReqs()
		for i := range reqs {
			reqs[i].Planner = pipeline.NewPlanner(reqs[i].DAG, reqs[i].Parts, reqs[i].SLO)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := pol.PlaceBatch(reqs, nodes); len(got) == 0 {
				b.Fatal("nothing placed")
			}
		}
		var st pipeline.PlannerStats
		for _, r := range reqs {
			st.Add(r.Planner.Stats())
		}
		b.ReportMetric(st.HitRate()*100, "hit_rate_%")
	})
	b.Run("unplaceable", func(b *testing.B) {
		// The scale workload's common round: four instances of one heavy
		// function, each request carrying its planner, over 16 nodes with
		// only 1g slices free. Nothing places, and after the first round
		// every probe is answered by the planner's last-answer memo.
		a := dnn.Get(dnn.ImageClassification)
		d := a.BuildDAG(dnn.Large)
		parts, _ := d.EnumeratePartitions(mig.Slice7g)
		slo, _ := a.SLOLatency(dnn.Large, 1.5)
		req := scheduler.Req{DAG: d, Parts: parts, SLO: slo, Planner: pipeline.NewPlanner(d, parts, slo)}
		reqs := []scheduler.Req{req, req, req, req}
		var full []scheduler.NodeFree
		for n := 0; n < 16; n++ {
			free := make([]mig.SliceType, 8)
			for g := range free {
				free[g] = mig.Slice1g
			}
			full = append(full, scheduler.NodeFree{Node: n, Free: free, Counts: pipeline.CountsOf(free)})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := pol.PlaceBatch(reqs, full); len(got) != 0 {
				b.Fatalf("placed %d heavy requests on 1g slices", len(got))
			}
		}
	})
}

// BenchmarkPlatformMediumFluidFaaS measures a whole platform run: wall
// time per simulated 150 s of cluster operation.
func BenchmarkPlatformMediumFluidFaaS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunSystem(&scheduler.FluidFaaS{}, experiments.Medium, benchCfg())
	}
}

// BenchmarkObservedCell measures the observers' host cost on the
// observed cell: FluidFaaS on the heavy workload, 4 nodes at twice the
// paper's rate for 600 s, seed 42, bare and with each recorder attached
// (fresh ones per iteration). B/op and allocs/op repeat run to run, so
// they give an observer target that holds still.
func BenchmarkObservedCell(b *testing.B) {
	for _, bc := range []struct {
		name   string
		attach func(*experiments.Config)
	}{
		{"bare", func(*experiments.Config) {}},
		{"spans", func(c *experiments.Config) { c.Obs = obs.NewRecorder() }},
		{"decisions", func(c *experiments.Config) { c.Decisions = decisions.NewRecorder(0) }},
		{"util", func(c *experiments.Config) { c.Util = util.NewLedger() }},
		{"all", func(c *experiments.Config) {
			c.Obs, c.Decisions, c.Util = obs.NewRecorder(), decisions.NewRecorder(0), util.NewLedger()
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := experiments.DefaultConfig()
				cfg.Nodes = 4
				cfg.RateScale = 2
				cfg.Duration = 600
				bc.attach(&cfg)
				experiments.RunSystem(&scheduler.FluidFaaS{}, experiments.Heavy, cfg)
			}
		})
	}
}

// BenchmarkExtensionBatching sweeps dynamic batching in its target
// regime (over-saturated, loose SLO): throughput rises with batch size.
func BenchmarkExtensionBatching(b *testing.B) {
	var pts []experiments.BatchingPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.RunBatching(benchCfg(), []int{1, 4, 8})
	}
	for _, p := range pts {
		b.ReportMetric(p.Throughput, fmt.Sprintf("batch%d_rps", p.MaxBatch))
	}
}

// BenchmarkAblationRouting isolates the heterogeneity-aware routing of
// §5.3: latency-ascending (the paper) vs slowest-first vs round-robin
// on the medium workload, where monolithic and pipelined instances of
// one function coexist with very different latencies.
func BenchmarkAblationRouting(b *testing.B) {
	run := func(order platform.RoutingOrder) experiments.SystemResult {
		cfg := benchCfg()
		cfg.Routing = order
		return experiments.RunSystem(&scheduler.FluidFaaS{}, experiments.Medium, cfg)
	}
	var asc experiments.SystemResult
	for i := 0; i < b.N; i++ {
		asc = run(platform.RouteLatencyAsc)
	}
	desc := run(platform.RouteLatencyDesc)
	rr := run(platform.RouteRoundRobin)
	b.ReportMetric(asc.SLOHit*100, "latency_asc_slo_%")
	b.ReportMetric(desc.SLOHit*100, "latency_desc_slo_%")
	b.ReportMetric(rr.SLOHit*100, "round_robin_slo_%")
}

// BenchmarkExtensionChaining quantifies §5's premise: whole-workflow
// functions vs function-per-model chaining.
func BenchmarkExtensionChaining(b *testing.B) {
	var r experiments.ChainingResult
	for i := 0; i < b.N; i++ {
		r = experiments.RunChaining(benchCfg())
	}
	b.ReportMetric(r.WholeSLOHit*100, "whole_slo_%")
	b.ReportMetric(r.ChainSLOHit*100, "chained_slo_%")
	b.ReportMetric(r.ChainHopOverhead*1000, "hop_overhead_ms")
}

// BenchmarkAblationDualBlade measures ESG's A* search effort with and
// without its two pruning blades (the baseline's own headline
// optimisation) on a contended scheduling round.
func BenchmarkAblationDualBlade(b *testing.B) {
	var reqs []scheduler.Req
	for i := 0; i < 6; i++ {
		app := dnn.Get(dnn.AppIDs[i%4])
		v := dnn.Medium
		if app.Excluded(v) {
			v = dnn.Small
		}
		d := app.BuildDAG(v)
		parts, _ := d.EnumeratePartitions(mig.Slice7g)
		slo, _ := app.SLOLatency(v, 1.5)
		reqs = append(reqs, scheduler.Req{Func: i, DAG: d, Parts: parts, SLO: slo})
	}
	var free []mig.SliceType
	for g := 0; g < 4; g++ {
		free = append(free, mig.Slice4g, mig.Slice2g, mig.Slice1g)
	}
	nodes := []scheduler.NodeFree{{Node: 0, Free: free}}
	full := &scheduler.ESG{}
	for i := 0; i < b.N; i++ {
		full.PlaceBatch(reqs, nodes)
	}
	noPrune := &scheduler.ESG{DisableDominance: true, DisableBound: true}
	noPrune.PlaceBatch(reqs, nodes)
	b.ReportMetric(float64(full.Explored), "pruned_states")
	b.ReportMetric(float64(noPrune.Explored), "unpruned_states")
}
