// Quickstart: write a FluidFaaS function (Fig. 7 style), profile it in
// BUILDDAG mode, let the invoker construct a pipeline over whatever MIG
// slices happen to be free, and serve a burst of requests through the
// platform.
package main

import (
	"fmt"
	"log"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/ffaas"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
	"fluidfaas/internal/platform"
	"fluidfaas/internal/scheduler"
	"fluidfaas/internal/trace"
)

// imageClassification is the developer-written FluidFaaS function: the
// paper's App 0 (super-resolution -> segmentation -> classification) at
// the medium variant. Each DNN model is a Module; DefDAG registers the
// models and the dataflow, exactly like Fig. 7's defDAG.
type imageClassification struct{}

func (imageClassification) Name() string { return "image-classification" }

func (imageClassification) DefDAG(b *ffaas.Builder) {
	mod := func(m dnn.ModelID) *ffaas.StaticModule {
		return &ffaas.StaticModule{
			ModuleName: m.String(),
			Mem:        m.MemGB(dnn.Medium),
			Out:        m.OutMB(dnn.Medium),
			Exec:       m.ExecProfile(dnn.Medium),
		}
	}
	x1 := b.Reg(mod(dnn.SuperResolution), ffaas.Input)
	x2 := b.Reg(mod(dnn.Segmentation), x1)
	b.Reg(mod(dnn.Classification), x2)
}

func main() {
	fn := imageClassification{}

	// BUILDDAG mode: construct the FFS DAG and profile every component.
	d, profiles, err := ffaas.Profile(fn)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("component profiles (BUILDDAG mode):")
	for _, p := range profiles {
		fmt.Printf("  %-18s %4.1f GB  1g:%.0fms 2g:%.0fms 4g:%.0fms\n",
			p.Name, p.MemGB,
			p.Exec[mig.Slice1g]*1000, p.Exec[mig.Slice2g]*1000, p.Exec[mig.Slice4g]*1000)
	}

	// Offline step: enumerate partitions and rank by CV (Eq. 1).
	parts, err := d.EnumeratePartitions(mig.Slice7g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d candidate pipeline partitions, best CV %.3f\n", len(parts), parts[0].CV)

	// The invoker's launch step: only three fragmented 1g.10gb slices
	// are free — too small for the 18 GB function monolithically, but a
	// pipeline fits.
	free := mig.Config{mig.Slice1g, mig.Slice1g, mig.Slice1g}
	slo := 0.9 // seconds
	plan, _, err := pipeline.Construct(d, parts, free, slo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconstructed pipeline %v\n", plan)
	fmt.Printf("  unloaded latency %.0f ms, sustainable throughput %.2f req/s\n",
		plan.Latency*1000, plan.Throughput())

	// Serve it: one node whose only GPU exposes exactly those slices.
	// The warm-up request pays the platform's cold load from remote
	// storage (about 10 s). The burst then finds the pipeline warm;
	// stages overlap, but an instance admits at most
	// floor(SLO/bottleneck) = 2 requests, so the rest wait at the
	// function and completions land about 370 ms apart on average, not
	// at the 327 ms bottleneck.
	const burst, burstAt = 8, 15.0
	tr := &trace.Trace{Duration: burstAt, NumFuncs: 1}
	tr.Requests = append(tr.Requests, trace.Request{ID: 0})
	for i := 1; i <= burst; i++ {
		tr.Requests = append(tr.Requests, trace.Request{ID: i, Arrival: burstAt})
	}
	spec := platform.FunctionSpec{Name: fn.Name(), DAG: d, Parts: parts, SLO: slo}
	cl := cluster.New(cluster.Spec{Nodes: 1, GPUConfigs: []mig.Config{free}})
	p := platform.New(cl, []platform.FunctionSpec{spec}, platform.Options{Policy: &scheduler.FluidFaaS{}})
	p.Run(tr, 30)

	fmt.Printf("\nserving a burst of %d requests:\n", burst)
	for _, r := range p.Collector().Records() {
		if r.Dropped {
			log.Fatalf("request %d dropped after %.0f ms", r.ID, r.Latency()*1000)
		}
		if r.ID == 0 {
			fmt.Printf("  warm-up: latency %.0f ms (load %.0f)\n", r.Latency()*1000, r.Load*1000)
			continue
		}
		fmt.Printf("  req %d: latency %.0f ms (queue %.0f, exec %.0f, transfer %.0f, load %.0f)\n",
			r.ID-1, r.Latency()*1000, r.Queue*1000, r.Exec*1000, r.Transfer*1000, r.Load*1000)
	}
}
