package experiments

import (
	"fmt"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/platform"
	"fluidfaas/internal/scheduler"
	"fluidfaas/internal/trace"
	"fluidfaas/internal/workflow"
)

// ChainingResult compares the whole-workflow FluidFaaS function against
// the function-per-model chaining style (§5's design premise: putting
// the entire ML workflow in one serverless function avoids hop
// overheads, extra cold starts, and duplicated GPU runtimes).
type ChainingResult struct {
	// Whole-workflow (FluidFaaS function) side.
	WholeSLOHit     float64
	WholeThroughput float64
	WholeMemoryGB   float64
	// Chained (one function per model) side.
	ChainSLOHit      float64
	ChainThroughput  float64
	ChainMemoryGB    float64
	ChainHopOverhead float64
	ChainMeanLatency float64
}

// RunChaining runs the medium image-classification workload both ways
// on identical clusters and traces.
func RunChaining(cfg Config) ChainingResult {
	cfg = cfg.withDefaults()
	app := dnn.Get(dnn.ImageClassification)
	variant := dnn.Medium

	tr := trace.Generate(trace.Spec{
		Duration: cfg.Duration,
		Seed:     cfg.Seed + 7,
		Streams: []trace.StreamSpec{{
			Func: 0, MeanRPS: 8, RateSigma: 0.3,
			BurstFactor: 1.6, BurstFraction: 0.12, BurstLen: 25,
		}},
	})
	cfg.Spec = cluster.Spec{
		Nodes: 1, GPUConfigs: cfg.GPUConfigs[:4], CPUMemGB: 720,
	}

	// Whole workflow: one FluidFaaS function.
	wholeSpecs := []FunctionSpecBuilder{{App: app, Variant: variant}}
	whole := runWholeWorkflow(wholeSpecs, tr, cfg)

	// Chained: one function per model.
	chain := workflow.RunChained(app, variant, tr, cfg.Spec,
		&scheduler.FluidFaaS{}, cfg.Seed, cfg.SLOScale)

	return ChainingResult{
		WholeSLOHit:      whole.SLOHit,
		WholeThroughput:  whole.Throughput,
		WholeMemoryGB:    app.TotalMemGB(variant) + workflow.RuntimeDupGB,
		ChainSLOHit:      chain.SLOHit,
		ChainThroughput:  chain.Throughput,
		ChainMemoryGB:    chain.MemoryGB,
		ChainHopOverhead: chain.HopOverhead,
		ChainMeanLatency: chain.MeanLatency,
	}
}

// FunctionSpecBuilder pairs an app with a variant for ad-hoc runs.
type FunctionSpecBuilder struct {
	App     dnn.App
	Variant dnn.Variant
}

// runWholeWorkflow runs the apps as FluidFaaS whole-workflow functions
// over tr.
func runWholeWorkflow(builders []FunctionSpecBuilder, tr *trace.Trace, cfg Config) SystemResult {
	var specs []platform.FunctionSpec
	for i, b := range builders {
		d := b.App.BuildDAG(b.Variant)
		parts, err := d.EnumeratePartitions(mig.Slice7g)
		if err != nil {
			panic(err)
		}
		slo, ok := b.App.SLOLatency(b.Variant, cfg.SLOScale)
		if !ok {
			panic("experiments: no SLO for whole-workflow run")
		}
		specs = append(specs, platform.FunctionSpec{
			ID: i, Name: b.App.Name, DAG: d, Parts: parts, SLO: slo,
		})
	}
	cfg.Policy = &scheduler.FluidFaaS{}
	_, p := cfg.run(specs, tr)
	col := p.Collector()
	return SystemResult{
		System:     "fluidfaas-whole",
		SLOHit:     col.SLOHitRate(),
		Throughput: col.Throughput(tr.Duration),
		Completed:  col.Completed(),
		Total:      col.Len(),
	}
}

// ChainingTable renders the study.
func ChainingTable(r ChainingResult) Table {
	return Table{
		Title:  "Extension (§5): whole-workflow function vs function-per-model chaining",
		Header: []string{"quantity", "whole workflow", "chained"},
		Rows: [][]string{
			{"SLO hit rate", pct(r.WholeSLOHit), pct(r.ChainSLOHit)},
			{"throughput (req/s)", f1(r.WholeThroughput), f1(r.ChainThroughput)},
			{"deployment memory (GB)", f1(r.WholeMemoryGB), f1(r.ChainMemoryGB)},
			{"chain hop overhead (ms)", "0", f1(r.ChainHopOverhead * 1000)},
			{"chained mean latency (s)", "-", fmt.Sprintf("%.2f", r.ChainMeanLatency)},
		},
	}
}
