package ffaas_test

import (
	"fmt"

	"fluidfaas/internal/dag"
	"fluidfaas/internal/ffaas"
	"fluidfaas/internal/mig"
)

// twoStage is a minimal developer-written FluidFaaS function.
type twoStage struct{}

func (twoStage) Name() string { return "two-stage" }

func (twoStage) DefDAG(b *ffaas.Builder) {
	exec := func(ms float64) map[mig.SliceType]float64 {
		m := map[mig.SliceType]float64{}
		for _, t := range mig.SliceTypes {
			m[t] = ms / 1000
		}
		return m
	}
	x := b.Reg(&ffaas.StaticModule{
		ModuleName: "encoder", Mem: 6, Out: 8, Exec: exec(40),
	}, ffaas.Input)
	b.Reg(&ffaas.StaticModule{
		ModuleName: "decoder", Mem: 4, Out: 1, Exec: exec(30),
	}, x)
}

// Example walks the whole FluidFaaS function lifecycle: BUILDDAG-mode
// profiling, the configuration layer written by the invoker, and
// RUN-mode execution: the request passes the per-slice stage processes
// in order, each costed exactly as the invoker's pipeline plan.
func Example() {
	fn := twoStage{}

	// BUILDDAG mode.
	_, profiles, _ := ffaas.Profile(fn)
	for _, p := range profiles {
		fmt.Printf("%s: %.0f GB\n", p.Name, p.MemGB)
	}

	// The invoker decided on a two-stage pipeline over two 1g slices
	// and wrote it to the configuration layer.
	cfg := ffaas.Config{Stages: []ffaas.StageConfig{
		{Nodes: []dag.NodeID{0}, Slice: mig.Slice1g, SliceID: "gpu0/1g#0"},
		{Nodes: []dag.NodeID{1}, Slice: mig.Slice1g, SliceID: "gpu1/1g#0"},
	}}

	// RUN mode.
	inst, err := ffaas.Launch(fn, cfg, ffaas.LaunchOptions{Preloaded: true})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer inst.Close()
	res := inst.InvokeWait(0)
	fmt.Printf("stages: %d\n", inst.Stages())
	fmt.Printf("exec: %.0f ms\n", res.ExecTime*1000)
	fmt.Printf("queue: %.0f ms\n", res.QueueTime*1000)
	// Output:
	// encoder: 6 GB
	// decoder: 4 GB
	// stages: 2
	// exec: 70 ms
	// queue: 0 ms
}
