package ffaas

import (
	"encoding/json"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fluidfaas/internal/dag"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
)

// appFunction adapts a dnn application to the Function interface the way
// a developer would write it.
type appFunction struct {
	app     dnn.App
	variant dnn.Variant
}

func (f appFunction) Name() string { return f.app.Name + "/" + f.variant.String() }

func (f appFunction) DefDAG(b *Builder) {
	handles := make([]Handle, len(f.app.Models))
	preds := make(map[int][]int)
	for _, e := range f.app.Edges {
		preds[e[1]] = append(preds[e[1]], e[0])
	}
	for i, m := range f.app.Models {
		mod := &StaticModule{
			ModuleName: m.String(),
			Mem:        m.MemGB(f.variant),
			Out:        m.OutMB(f.variant),
			Exec:       m.ExecProfile(f.variant),
		}
		var ins []Handle
		for _, p := range preds[i] {
			ins = append(ins, handles[p])
		}
		if len(ins) == 0 {
			ins = []Handle{Input}
		}
		handles[i] = b.Reg(mod, ins...)
	}
}

func mediumApp0() appFunction {
	return appFunction{app: dnn.Get(dnn.ImageClassification), variant: dnn.Medium}
}

func TestBuildDAGMatchesDNN(t *testing.T) {
	fn := mediumApp0()
	d, err := BuildDAG(fn)
	if err != nil {
		t.Fatal(err)
	}
	want := fn.app.BuildDAG(fn.variant)
	if d.Len() != want.Len() {
		t.Fatalf("DAG len = %d, want %d", d.Len(), want.Len())
	}
	if math.Abs(d.TotalMemGB()-want.TotalMemGB()) > 1e-9 {
		t.Errorf("mem %v != %v", d.TotalMemGB(), want.TotalMemGB())
	}
	for i := range d.Len() {
		id := dag.NodeID(i)
		e1, ok1 := d.Node(id).ExecOn(mig.Slice2g)
		e2, ok2 := want.Node(id).ExecOn(mig.Slice2g)
		if ok1 != ok2 || math.Abs(e1-e2) > 1e-12 {
			t.Errorf("component %d exec on 2g = %v, %v; want %v, %v", i, e1, ok1, e2, ok2)
		}
	}
}

func TestProfileMode(t *testing.T) {
	fn := mediumApp0()
	d, profs, err := Profile(fn)
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != d.Len() {
		t.Fatalf("profiles = %d, want %d", len(profs), d.Len())
	}
	for _, p := range profs {
		if p.MemGB <= 0 || len(p.Exec) == 0 {
			t.Errorf("profile %s incomplete: %+v", p.Name, p)
		}
		// Medium components all fit 1g.
		if _, ok := p.Exec[mig.Slice1g]; !ok {
			t.Errorf("profile %s missing 1g entry", p.Name)
		}
	}
}

// configFor builds a Config via the invoker path: rank partitions,
// construct against available slices, convert the plan.
func configFor(t *testing.T, fn appFunction, avail []mig.SliceType) (Config, pipeline.Plan) {
	t.Helper()
	d := fn.app.BuildDAG(fn.variant)
	parts, err := d.EnumeratePartitions(mig.Slice7g)
	if err != nil {
		t.Fatal(err)
	}
	plan, idx, err := pipeline.Construct(d, parts, avail, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(idx))
	for i, ai := range idx {
		ids[i] = avail[ai].String()
	}
	cfg, err := FromPlan(plan, ids)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, plan
}

func TestLaunchAndInvokeMonolithic(t *testing.T) {
	fn := mediumApp0()
	cfg, plan := configFor(t, fn, []mig.SliceType{mig.Slice4g})
	inst, err := Launch(fn, cfg, LaunchOptions{Preloaded: true})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if inst.Stages() != 1 {
		t.Fatalf("stages = %d, want 1", inst.Stages())
	}
	res := inst.InvokeWait(0)
	if math.Abs(res.Latency-plan.Latency) > 1e-9 {
		t.Errorf("latency = %v, plan latency = %v", res.Latency, plan.Latency)
	}
	if res.QueueTime != 0 || res.LoadTime != 0 {
		t.Errorf("unexpected queue/load: %+v", res)
	}
}

func TestLaunchPipelineOverlap(t *testing.T) {
	fn := mediumApp0()
	cfg, plan := configFor(t, fn, []mig.SliceType{mig.Slice1g, mig.Slice1g, mig.Slice1g})
	if len(cfg.Stages) < 2 {
		t.Fatalf("expected pipelined config, got %d stages", len(cfg.Stages))
	}
	inst, err := Launch(fn, cfg, LaunchOptions{Preloaded: true})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	// Submit a back-to-back burst at virtual time 0; pipelining means
	// request k completes at about latency + k*bottleneck.
	const n = 10
	chans := make([]<-chan Result, n)
	for i := 0; i < n; i++ {
		chans[i] = inst.Invoke(0)
	}
	var last Result
	for i := 0; i < n; i++ {
		last = <-chans[i]
	}
	wantLast := plan.Latency + float64(n-1)*plan.Bottleneck
	gotLast := last.Latency
	if math.Abs(gotLast-wantLast) > 1e-6 {
		t.Errorf("burst completion latency = %v, want %v (pipelined)", gotLast, wantLast)
	}
	served, busy := inst.StageStats()
	for i := range served {
		if served[i] != n {
			t.Errorf("stage %d served %d, want %d", i, served[i], n)
		}
		if busy[i] <= 0 {
			t.Errorf("stage %d busy = %v", i, busy[i])
		}
	}
}

func TestEvictionReloadPenalty(t *testing.T) {
	fn := mediumApp0()
	cfg, _ := configFor(t, fn, []mig.SliceType{mig.Slice4g})
	load := func(memGB float64) float64 { return memGB / 12 }
	inst, err := Launch(fn, cfg, LaunchOptions{Preloaded: true, LoadTime: load})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	first := inst.InvokeWait(0)
	if first.LoadTime != 0 {
		t.Errorf("preloaded first request paid load %v", first.LoadTime)
	}
	inst.EvictStage(0)
	second := inst.InvokeWait(first.Latency)
	wantLoad := fn.app.TotalMemGB(fn.variant) / 12
	if math.Abs(second.LoadTime-wantLoad) > 1e-9 {
		t.Errorf("post-eviction load = %v, want %v", second.LoadTime, wantLoad)
	}
	third := inst.InvokeWait(second.Latency + second.LoadTime + 10)
	if third.LoadTime != 0 {
		t.Errorf("third request paid load %v after reload", third.LoadTime)
	}
}

func TestColdStartLoadOnFirstRequest(t *testing.T) {
	fn := mediumApp0()
	cfg, _ := configFor(t, fn, []mig.SliceType{mig.Slice4g})
	inst, err := Launch(fn, cfg, LaunchOptions{LoadTime: func(m float64) float64 { return 1 }})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	res := inst.InvokeWait(0)
	if res.LoadTime != 1 {
		t.Errorf("cold first request load = %v, want 1", res.LoadTime)
	}
}

func TestLaunchRejectsBadConfigs(t *testing.T) {
	fn := mediumApp0()
	good, _ := configFor(t, fn, []mig.SliceType{mig.Slice4g})
	cases := map[string]Config{
		"empty":       {},
		"missingNode": {Stages: []StageConfig{{Nodes: good.Stages[0].Nodes[:2], Slice: mig.Slice4g}}},
		"dupNode": {Stages: []StageConfig{
			{Nodes: good.Stages[0].Nodes, Slice: mig.Slice4g},
			{Nodes: good.Stages[0].Nodes[:1], Slice: mig.Slice1g},
		}},
		"oom": {Stages: []StageConfig{{Nodes: good.Stages[0].Nodes, Slice: mig.Slice1g}}},
		"emptyStage": {Stages: []StageConfig{
			{Nodes: good.Stages[0].Nodes, Slice: mig.Slice4g},
			{Slice: mig.Slice1g},
		}},
		"badNode": {Stages: []StageConfig{{Nodes: []dag.NodeID{0, 1, 99}, Slice: mig.Slice4g}}},
		"backwards": {Stages: []StageConfig{
			{Nodes: good.Stages[0].Nodes[2:], Slice: mig.Slice4g},
			{Nodes: good.Stages[0].Nodes[:2], Slice: mig.Slice2g},
		}},
	}
	for name, cfg := range cases {
		if _, err := Launch(fn, cfg, LaunchOptions{}); err == nil {
			t.Errorf("config %q accepted", name)
		}
	}
}

func TestCloseIdempotentAndInvokeAfterClose(t *testing.T) {
	fn := mediumApp0()
	cfg, _ := configFor(t, fn, []mig.SliceType{mig.Slice4g})
	inst, err := Launch(fn, cfg, LaunchOptions{Preloaded: true})
	if err != nil {
		t.Fatal(err)
	}
	inst.Close()
	inst.Close() // must not panic
	ch := inst.Invoke(0)
	if _, ok := <-ch; ok {
		t.Error("Invoke after Close delivered a result")
	}
}

func TestFromPlanArityMismatch(t *testing.T) {
	fn := mediumApp0()
	d := fn.app.BuildDAG(fn.variant)
	plan, err := pipeline.Monolithic(d, mig.Slice4g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromPlan(plan, []string{"a", "b"}); err == nil {
		t.Error("FromPlan accepted wrong slice ID count")
	}
}

// The Fig. 7 example: five modules with a fork at the entry.
func TestFig7StyleFunction(t *testing.T) {
	mk := func(name string, ms float64) *StaticModule {
		exec := map[mig.SliceType]float64{}
		for _, st := range mig.SliceTypes {
			exec[st] = ms
		}
		return &StaticModule{ModuleName: name, Mem: 2, Out: 4, Exec: exec}
	}
	fn := funcDef{
		name: "fig7",
		def: func(b *Builder) {
			x1 := b.Reg(mk("m1", 0.01), Input)
			x2 := b.Reg(mk("m2", 0.01), Input)
			x3 := b.Reg(mk("m3", 0.02), x1, x2)
			x4 := b.Reg(mk("m4", 0.02), x3)
			b.Reg(mk("m5", 0.02), x4)
		},
	}
	d, err := BuildDAG(fn)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 5 {
		t.Fatalf("nodes = %d, want 5", d.Len())
	}
	segs, err := d.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 4 {
		t.Errorf("segments = %d, want 4 (fork collapses)", len(segs))
	}
}

type funcDef struct {
	name string
	def  func(b *Builder)
}

func (f funcDef) Name() string      { return f.name }
func (f funcDef) DefDAG(b *Builder) { f.def(b) }

// TestConcurrentInvokers stresses the RUN-mode runtime: many goroutines
// invoking one pipelined instance concurrently (run under -race).
func TestConcurrentInvokers(t *testing.T) {
	fn := mediumApp0()
	cfg, _ := configFor(t, fn, []mig.SliceType{mig.Slice1g, mig.Slice1g, mig.Slice1g})
	inst, err := Launch(fn, cfg, LaunchOptions{Preloaded: true, LoadTime: func(m float64) float64 { return m / 12 }})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	const workers, perWorker = 8, 25
	results := make(chan Result, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				results <- inst.InvokeWait(float64(w*perWorker+i) * 0.001)
			}
		}(w)
	}
	wg.Wait()
	close(results)
	n := 0
	for r := range results {
		n++
		if r.ExecTime <= 0 {
			t.Fatal("zero exec time")
		}
	}
	if n != workers*perWorker {
		t.Fatalf("results = %d, want %d", n, workers*perWorker)
	}
	served, _ := inst.StageStats()
	for i, s := range served {
		if s != workers*perWorker {
			t.Errorf("stage %d served %d", i, s)
		}
	}
	// Evict while idle, then serve again: still consistent.
	for i := 0; i < inst.Stages(); i++ {
		inst.EvictStage(i)
	}
	res := inst.InvokeWait(1000)
	if res.LoadTime <= 0 {
		t.Error("post-eviction request paid no reload")
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	fn := mediumApp0()
	cfg, _ := configFor(t, fn, []mig.SliceType{mig.Slice1g, mig.Slice1g, mig.Slice1g})
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A config written with the retired queue_cap key still loads.
	legacy := append([]byte(`{"queue_cap":32,`), data[1:]...)
	var back Config
	if err := json.Unmarshal(legacy, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Stages) != len(cfg.Stages) {
		t.Fatalf("round trip mangled config: %+v", back)
	}
	for i := range cfg.Stages {
		if back.Stages[i].Slice != cfg.Stages[i].Slice ||
			back.Stages[i].SliceID != cfg.Stages[i].SliceID ||
			len(back.Stages[i].Nodes) != len(cfg.Stages[i].Nodes) {
			t.Fatalf("stage %d mismatch: %+v vs %+v", i, back.Stages[i], cfg.Stages[i])
		}
	}
	// A round-tripped config launches.
	inst, err := Launch(fn, back, LaunchOptions{Preloaded: true})
	if err != nil {
		t.Fatal(err)
	}
	inst.Close()
	// Bad slice names are rejected.
	if err := json.Unmarshal([]byte(`{"stages":[{"nodes":[0],"slice":"9g.90gb"}]}`), &back); err == nil {
		t.Error("bogus slice profile accepted")
	}
}

// TestInvokeDuringClose races invokers against Close: every Invoke must
// either deliver a full Result or close its channel empty, and once
// Close has returned no Invoke delivers a result.
func TestInvokeDuringClose(t *testing.T) {
	fn := mediumApp0()
	cfg, _ := configFor(t, fn, []mig.SliceType{mig.Slice1g, mig.Slice1g, mig.Slice1g})
	for round := 0; round < 20; round++ {
		inst, err := Launch(fn, cfg, LaunchOptions{Preloaded: true})
		if err != nil {
			t.Fatal(err)
		}
		const invokers = 4
		var wg sync.WaitGroup
		var issued atomic.Int64
		stop := make(chan struct{})
		chans := make([][]<-chan Result, invokers)
		for w := 0; w < invokers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					chans[w] = append(chans[w], inst.Invoke(float64(i)*0.01))
					issued.Add(1)
				}
			}(w)
		}
		// Close while every invoker is mid-stream.
		for issued.Load() < 1000 {
			runtime.Gosched()
		}
		inst.Close()
		close(stop)
		wg.Wait()
		if _, ok := <-inst.Invoke(0); ok {
			t.Fatal("Invoke after Close delivered a result")
		}
		for w := range chans {
			for _, ch := range chans[w] {
				if r, ok := <-ch; ok && (r.ExecTime <= 0 || len(r.StageTimes) != inst.Stages()) {
					t.Fatalf("invoker %d: partial result %+v", w, r)
				}
			}
		}
	}
}
