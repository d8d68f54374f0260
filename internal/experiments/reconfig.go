package experiments

import (
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
	"fluidfaas/internal/sim"
	"fluidfaas/internal/trace"
)

// ReconfigResult quantifies §2.2's argument that on-demand MIG
// repartitioning is impractical for serverless: when the workload
// shifts from small to large variants, a reconfiguring system
// repartitions the GPU (several minutes offline), while FluidFaaS
// simply pipelines the large function over the existing fragments.
type ReconfigResult struct {
	// Requests served during the shift window by each approach.
	ReconfigServed int
	FluidServed    int
	Total          int
	// OfflineSeconds the reconfiguring GPU spent unavailable.
	OfflineSeconds float64
}

// RunReconfig replays a workload shift on one GPU partitioned
// 2g+2g+2g+1g for a small-variant fleet. From the shift onward only the
// large image-classification variant arrives, which fits no existing
// slice monolithically (it needs 3g-class memory). The reconfiguring
// system drains and repartitions to P2 (3g+2g+2g), paying
// mig.ReconfigureDelay offline, then serves monolithically on the 3g;
// FluidFaaS starts a 2g+2g+1g pipeline over the existing fragments
// immediately.
func RunReconfig(cfg Config) ReconfigResult {
	cfg = cfg.withDefaults()
	app := dnn.Get(dnn.ImageClassification)
	const shiftAt = 60.0
	duration := shiftAt + mig.ReconfigureDelay + 60

	largeDAG := app.BuildDAG(dnn.Large)
	parts, err := largeDAG.EnumeratePartitions(mig.Slice7g)
	if err != nil {
		panic(err)
	}
	largeSLO, _ := app.SLOLatency(dnn.Large, cfg.SLOScale)

	// Arrivals: large-variant requests from the shift onward.
	tr := trace.Generate(trace.Spec{
		Duration: duration,
		Seed:     cfg.Seed + 99,
		Streams:  []trace.StreamSpec{{Func: 0, MeanRPS: 1.0}},
	})
	var arrivals []float64
	for _, r := range tr.Requests {
		if r.Arrival >= shiftAt {
			arrivals = append(arrivals, r.Arrival)
		}
	}

	res := ReconfigResult{Total: len(arrivals)}

	// Reconfiguring system: offline during [shiftAt, shiftAt+delay],
	// then a monolithic 3g instance serves FIFO.
	{
		eng := sim.NewEngine()
		res.OfflineSeconds = mig.ReconfigureDelay
		plan, err := pipeline.Monolithic(largeDAG, mig.Slice3g)
		if err != nil {
			panic(err)
		}
		st := sim.NewStation(eng)
		served := 0
		for _, at := range arrivals {
			arrival := at
			eng.At(arrival, func() {
				st.Enqueue(&sim.Job{
					Service: func() sim.Time { return plan.Latency },
					Done: func() {
						if eng.Now()-arrival <= largeSLO*4 {
							served++
						}
					},
				})
			})
		}
		// The station only starts once the repartition completes.
		st.Pause()
		eng.At(shiftAt+mig.ReconfigureDelay, func() { st.Resume() })
		eng.RunUntil(duration + 60)
		res.ReconfigServed = served
	}

	// FluidFaaS: pipeline over the already-partitioned fragments,
	// serving from the first post-shift request.
	{
		eng := sim.NewEngine()
		plan, _, err := pipeline.Construct(largeDAG, parts,
			[]mig.SliceType{mig.Slice2g, mig.Slice2g, mig.Slice2g, mig.Slice1g}, largeSLO)
		if err != nil {
			panic(err)
		}
		// Tandem stations per stage.
		sts := make([]*sim.Station, len(plan.Stages))
		for i := range plan.Stages {
			sts[i] = sim.NewStation(eng)
		}
		served := 0
		var enqueue func(arrival float64, si int)
		enqueue = func(arrival float64, si int) {
			sp := plan.Stages[si]
			sts[si].Enqueue(&sim.Job{
				Service: func() sim.Time { return sp.ExecTime },
				Done: func() {
					if si+1 < len(sts) {
						eng.After(sp.TransferOut, func() { enqueue(arrival, si+1) })
						return
					}
					if eng.Now()-arrival <= largeSLO*4 {
						served++
					}
				},
			})
		}
		for _, at := range arrivals {
			arrival := at
			eng.At(arrival, func() { enqueue(arrival, 0) })
		}
		eng.RunUntil(duration + 60)
		res.FluidServed = served
	}
	return res
}

// ReconfigTable renders the reconfiguration study.
func ReconfigTable(r ReconfigResult) Table {
	return Table{
		Title:  "Extension (§2.2): on-demand repartitioning vs FluidFaaS pipelines",
		Header: []string{"approach", "served in time", "of", "GPU offline (s)"},
		Rows: [][]string{
			{"repartition to P2 (3g+2g+2g)", f1(float64(r.ReconfigServed)), f1(float64(r.Total)), f1(r.OfflineSeconds)},
			{"fluidfaas pipeline", f1(float64(r.FluidServed)), f1(float64(r.Total)), "0.0"},
		},
	}
}
