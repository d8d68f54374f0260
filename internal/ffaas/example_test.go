package ffaas_test

import (
	"fmt"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/ffaas"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/platform"
	"fluidfaas/internal/scheduler"
	"fluidfaas/internal/trace"
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
		ModuleName: "encoder", Mem: 8, Out: 8, Exec: exec(40),
	}, ffaas.Input)
	b.Reg(&ffaas.StaticModule{
		ModuleName: "decoder", Mem: 6, Out: 1, Exec: exec(30),
	}, x)
}

// Example walks the whole FluidFaaS function lifecycle: BUILDDAG-mode
// profiling, then serving through the platform on a GPU whose only free
// slices are two 1g.10gb fragments. Neither fits the 14 GB function, so
// the invoker launches one two-stage pipeline; after a warm-up request
// has paid the cold load, a request runs both stages back to back with
// one shared-memory hop between them.
func Example() {
	fn := twoStage{}

	// BUILDDAG mode.
	d, profiles, _ := ffaas.Profile(fn)
	for _, p := range profiles {
		fmt.Printf("%s: %.0f GB\n", p.Name, p.MemGB)
	}
	parts, _ := d.EnumeratePartitions(mig.Slice7g)

	// Serve a warm-up request at t=0 and one warm request at t=30 s.
	spec := platform.FunctionSpec{Name: fn.Name(), DAG: d, Parts: parts, SLO: 1}
	cl := cluster.New(cluster.Spec{Nodes: 1, GPUConfigs: []mig.Config{{mig.Slice1g, mig.Slice1g}}})
	p := platform.New(cl, []platform.FunctionSpec{spec}, platform.Options{Policy: &scheduler.FluidFaaS{}})
	p.Run(&trace.Trace{
		Requests: []trace.Request{{ID: 0}, {ID: 1, Arrival: 30}},
		Duration: 30, NumFuncs: 1,
	}, 10)

	fmt.Printf("instances: %d\n", p.Launched())
	res := p.Collector().Records()[1]
	fmt.Printf("exec: %.0f ms\n", res.Exec*1000)
	fmt.Printf("queue: %.0f ms\n", res.Queue*1000)
	fmt.Printf("transfer: %.0f ms\n", res.Transfer*1000)
	// Output:
	// encoder: 8 GB
	// decoder: 6 GB
	// instances: 1
	// exec: 70 ms
	// queue: 0 ms
	// transfer: 12 ms
}
