// Llmstages: §5.2.3 notes that FluidFaaS extends beyond CNN workflows to
// LLM inference, whose multi-stage structure (tokenise -> prefill ->
// decode -> detokenise) maps naturally onto MIG fragments. This example
// defines an LLM-serving FluidFaaS function with custom modules and
// compares the monolithic deployment (needs a whole 7g.80gb GPU) against
// the pipeline the invoker builds from fragmented slices.
package main

import (
	"fmt"
	"log"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/ffaas"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
	"fluidfaas/internal/platform"
	"fluidfaas/internal/scheduler"
	"fluidfaas/internal/trace"
)

// llmModule builds a Module with an explicit per-slice profile: time
// scales with (7/gpcs)^alpha above a fixed floor, and stages that do not
// fit a slice's memory are omitted.
func llmModule(name string, memGB, t7 float64, outMB float64) *ffaas.StaticModule {
	exec := map[mig.SliceType]float64{}
	for _, t := range mig.SliceTypes {
		if memGB > float64(t.MemGB()) {
			continue
		}
		scale := 1.0
		switch t {
		case mig.Slice1g:
			scale = 2.6
		case mig.Slice2g:
			scale = 1.8
		case mig.Slice3g:
			scale = 1.5
		case mig.Slice4g:
			scale = 1.3
		}
		exec[t] = t7 * scale
	}
	return &ffaas.StaticModule{ModuleName: name, Mem: memGB, Out: outMB, Exec: exec}
}

// llmServe is a 7B-class chat-completion function: the tokeniser and
// detokeniser are tiny CPU-ish stages, prefill is compute-heavy, decode
// is memory-bandwidth-heavy with the KV cache.
type llmServe struct{}

func (llmServe) Name() string { return "llm-serve-7b" }

func (llmServe) DefDAG(b *ffaas.Builder) {
	tok := b.Reg(llmModule("tokenize", 1.0, 0.002, 0.1), ffaas.Input)
	pre := b.Reg(llmModule("prefill", 16.0, 0.090, 2), tok)
	dec := b.Reg(llmModule("decode", 19.0, 0.140, 2), pre)
	b.Reg(llmModule("detokenize", 1.0, 0.002, 0.05), dec)
}

func main() {
	fn := llmServe{}
	d, profiles, err := ffaas.Profile(fn)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("LLM serving stages:")
	total := 0.0
	for _, p := range profiles {
		total += p.MemGB
		fmt.Printf("  %-12s %5.1f GB\n", p.Name, p.MemGB)
	}
	fmt.Printf("  total        %5.1f GB -> monolithic needs a 3g.40gb or larger\n\n", total)

	parts, err := d.EnumeratePartitions(mig.Slice7g)
	if err != nil {
		log.Fatal(err)
	}

	// Monolithic on the smallest slice that fits the whole model.
	mono, err := pipeline.Monolithic(d, mig.Slice3g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monolithic on 3g.40gb: latency %.0f ms, throughput %.2f req/s (3 GPCs)\n",
		mono.Latency*1000, mono.Throughput())

	// The cluster is fragmented: only 2g and 1g slices are free.
	free := mig.Config{mig.Slice2g, mig.Slice2g, mig.Slice1g}
	plan, _, err := pipeline.Construct(d, parts, free, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline on fragments: %v\n", plan)
	fmt.Printf("  latency %.0f ms, throughput %.2f req/s (%d GPCs)\n\n",
		plan.Latency*1000, plan.Throughput(), plan.GPCs())

	// Serve a burst on one GPU holding exactly those fragments, after a
	// warm-up request has paid the cold load: decode dominates, so the
	// pipeline streams requests at the decode stage's pace.
	const n, burstAt = 16, 30.0
	tr := &trace.Trace{Duration: burstAt, NumFuncs: 1}
	tr.Requests = append(tr.Requests, trace.Request{ID: 0})
	for i := 1; i <= n; i++ {
		tr.Requests = append(tr.Requests, trace.Request{ID: i, Arrival: burstAt})
	}
	spec := platform.FunctionSpec{Name: fn.Name(), DAG: d, Parts: parts, SLO: 5}
	cl := cluster.New(cluster.Spec{Nodes: 1, GPUConfigs: []mig.Config{free}})
	p := platform.New(cl, []platform.FunctionSpec{spec}, platform.Options{Policy: &scheduler.FluidFaaS{}})
	p.Run(tr, 30)

	var first, last float64
	for _, r := range p.Collector().Records() {
		if r.Dropped {
			log.Fatalf("request %d dropped after %.0f ms", r.ID, r.Latency()*1000)
		}
		switch r.ID {
		case 1:
			first = r.Latency()
		case n:
			last = r.Latency()
		}
	}
	span := last - first
	fmt.Printf("served %d requests: first finished at %.0f ms, last at %.0f ms\n",
		n, first*1000, last*1000)
	fmt.Printf("steady-state spacing %.0f ms/request = %.2f req/s through the fragments\n",
		span/float64(n-1)*1000, float64(n-1)/span)
}
