package platform

import (
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/scheduler"
	"fluidfaas/internal/trace"
)

// specsFor builds FunctionSpecs for the paper's applications at one
// variant (excluded variants are skipped); IDs are dense in app order.
func specsFor(t *testing.T, v dnn.Variant) []FunctionSpec {
	t.Helper()
	var out []FunctionSpec
	for _, a := range dnn.Apps() {
		if a.Excluded(v) {
			continue
		}
		d := a.BuildDAG(v)
		parts, err := d.EnumeratePartitions(mig.Slice7g)
		if err != nil {
			t.Fatal(err)
		}
		slo, _ := a.SLOLatency(v, 1.5)
		out = append(out, FunctionSpec{
			ID: len(out), Name: a.Name + "/" + v.String(),
			DAG: d, Parts: parts, SLO: slo,
		})
	}
	return out
}

func flatTrace(specs []FunctionSpec, rps, duration float64, seed int64) *trace.Trace {
	var streams []trace.StreamSpec
	for i := range specs {
		streams = append(streams, trace.StreamSpec{Func: i, MeanRPS: rps, RateSigma: 0.3})
	}
	return trace.Generate(trace.Spec{Duration: duration, Seed: seed, Streams: streams})
}

func runOne(t *testing.T, pol scheduler.Policy, v dnn.Variant, rps, duration float64, seed int64, subs ...func(Event)) *Platform {
	t.Helper()
	specs := specsFor(t, v)
	cl := cluster.New(cluster.DefaultSpec())
	p := New(cl, specs, Options{Policy: pol, Seed: seed})
	for _, fn := range subs {
		p.Subscribe(fn)
	}
	tr := flatTrace(specs, rps, duration, seed)
	p.Run(tr, 60)
	if p.Collector().Len() != len(tr.Requests) {
		t.Fatalf("%s: recorded %d of %d requests", pol.Name(),
			p.Collector().Len(), len(tr.Requests))
	}
	return p
}

// runMedium runs the medium functions at 8 req/s each for 120 s, with a
// 40 s drain, under opts at seed.
func runMedium(t *testing.T, opts Options, seed int64, subs ...func(Event)) *Platform {
	t.Helper()
	specs := specsFor(t, dnn.Medium)
	opts.Seed = seed
	p := New(cluster.New(cluster.DefaultSpec()), specs, opts)
	for _, fn := range subs {
		p.Subscribe(fn)
	}
	p.Run(flatTrace(specs, 8, 120, seed), 40)
	return p
}

func TestLightWorkloadAllPoliciesMeetSLO(t *testing.T) {
	for _, pol := range []scheduler.Policy{&scheduler.FluidFaaS{}, &scheduler.ESG{}, &scheduler.INFlessMIG{}} {
		p := runOne(t, pol, dnn.Small, 5, 240, 11)
		if hit := p.Collector().SLOHitRate(); hit < 0.85 {
			t.Errorf("%s light SLO hit rate = %.2f, want >= 0.85", pol.Name(), hit)
		}
	}
}

func TestMediumWorkloadFluidFaaSWins(t *testing.T) {
	ff := runOne(t, &scheduler.FluidFaaS{}, dnn.Medium, 12, 300, 13)
	esg := runOne(t, &scheduler.ESG{}, dnn.Medium, 12, 300, 13)
	ffHit := ff.Collector().SLOHitRate()
	esgHit := esg.Collector().SLOHitRate()
	if ffHit <= esgHit {
		t.Errorf("medium: fluidfaas SLO %.2f should beat esg %.2f", ffHit, esgHit)
	}
	ffThr := ff.Collector().Throughput(300)
	esgThr := esg.Collector().Throughput(300)
	if ffThr < esgThr {
		t.Errorf("medium: fluidfaas throughput %.1f below esg %.1f", ffThr, esgThr)
	}
}

func TestHeavyWorkloadThroughputGap(t *testing.T) {
	ff := runOne(t, &scheduler.FluidFaaS{}, dnn.Large, 11, 300, 17)
	esg := runOne(t, &scheduler.ESG{}, dnn.Large, 11, 300, 17)
	ffThr := ff.Collector().Throughput(300)
	esgThr := esg.Collector().Throughput(300)
	if ffThr < esgThr*1.2 {
		t.Errorf("heavy: fluidfaas throughput %.1f not clearly above esg %.1f", ffThr, esgThr)
	}
	if ffHit, esgHit := ff.Collector().SLOHitRate(), esg.Collector().SLOHitRate(); ffHit <= esgHit {
		t.Errorf("heavy: fluidfaas SLO %.2f should beat esg %.2f", ffHit, esgHit)
	}
}

func TestDeterminism(t *testing.T) {
	a := runOne(t, &scheduler.FluidFaaS{}, dnn.Medium, 8, 180, 5)
	b := runOne(t, &scheduler.FluidFaaS{}, dnn.Medium, 8, 180, 5)
	ra, rb := a.Collector().Records(), b.Collector().Records()
	if len(ra) != len(rb) {
		t.Fatalf("record counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, ra[i], rb[i])
		}
	}
	if a.Launched() != b.Launched() || a.Evictions() != b.Evictions() {
		t.Error("platform counters differ across identical runs")
	}
}

// Low-rate functions stay in time sharing and share one slice through
// eviction; the baselines would hold one slice per function.
func TestTimeSharingEviction(t *testing.T) {
	specs := specsFor(t, dnn.Small)
	cl := cluster.New(cluster.Spec{
		Nodes: 1, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 1), CPUMemGB: 200,
	})
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 3})
	// Very low rate: far below the 30% hotness threshold.
	var streams []trace.StreamSpec
	for i := range specs {
		streams = append(streams, trace.StreamSpec{Func: i, MeanRPS: 0.08})
	}
	tr := trace.Generate(trace.Spec{Duration: 400, Seed: 3, Streams: streams})
	p.Run(tr, 60)
	if p.Evictions() == 0 {
		t.Error("no evictions despite multiple cold functions sharing slices")
	}
	// Sub-threshold load should stay in time sharing. A couple of
	// transient launches are tolerated: shedding client-timed-out queue
	// jobs frees binding slots, and the extra admitted work can briefly
	// push a swap-thrashed binding over the hotness threshold while it
	// has overflow (Fig. 8 transition 2).
	if p.Launched() > 2 {
		t.Errorf("launched %d exclusive instances for sub-threshold load", p.Launched())
	}
	if hit := p.Collector().SLOHitRate(); hit > 0.9 {
		// Cold starts and reloads should cost something; a perfect rate
		// would mean eviction was never exercised.
		t.Logf("note: SLO hit rate %.2f (evictions=%d)", hit, p.Evictions())
	}
}

// Exclusive keep-alive: after load stops, baselines hold their slices
// until the timeout; FluidFaaS demotes and frees them much sooner.
func TestKeepAliveRelease(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	mk := func(pol scheduler.Policy) *Platform {
		cl := cluster.New(cluster.Spec{
			Nodes: 1, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 1), CPUMemGB: 200,
		})
		p := New(cl, specs, Options{Policy: pol, Seed: 9})
		tr := trace.Generate(trace.Spec{Duration: 900, Seed: 9, Streams: []trace.StreamSpec{
			// Busy for the first ~120 s, then silent.
			{Func: 0, MeanRPS: 4, BurstFactor: 1},
		}})
		// Truncate arrivals after 120 s.
		var kept []trace.Request
		for _, r := range tr.Requests {
			if r.Arrival < 120 {
				kept = append(kept, r)
			}
		}
		tr.Requests = kept
		p.Run(tr, 780)
		return p
	}
	esg := mk(&scheduler.ESG{})
	// ESG holds the slice for the whole keep-alive window after the last
	// request: occupied time >= 120 + 600.
	occ := esg.Cluster().AllGPUs()[0].Slices[2].OccupiedTime(900) // 1g slice
	if occ < 600 {
		t.Errorf("esg occupied 1g slice for %.0f s, want >= 600 (exclusive keep-alive)", occ)
	}
	ff := mk(&scheduler.FluidFaaS{})
	// FluidFaaS demotes exclusive instances shortly after the load
	// stops; by the end nothing exclusive remains.
	if n := len(ff.funcs[0].instances); n != 0 {
		t.Errorf("fluidfaas still holds %d exclusive instances long after idle", n)
	}
	// Both systems pay the unavoidable cold-start misses; the hit rates
	// must be comparable (the light-workload result of Fig. 9).
	ffHit, esgHit := ff.Collector().SLOHitRate(), esg.Collector().SLOHitRate()
	if ffHit < esgHit-0.15 {
		t.Errorf("fluidfaas SLO hit %.2f far below esg %.2f in light load", ffHit, esgHit)
	}
}

func TestPipelineMigration(t *testing.T) {
	// Three GPUs, two hot medium functions whose combined demand exceeds
	// the monolithic slots, so pipelines form on the 1g fragments. When
	// function 0 stops at t=150 its big slices free, and a surviving
	// pipeline must migrate to a monolithic instance.
	specs := specsFor(t, dnn.Medium)[:2]
	cl := cluster.New(cluster.Spec{
		Nodes: 1, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 3), CPUMemGB: 200,
	})
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 21, IdleDemote: 10})
	tr := trace.Generate(trace.Spec{Duration: 400, Seed: 21, Streams: []trace.StreamSpec{
		{Func: 0, MeanRPS: 6}, // hot, grabs the big slices, stops at t=150
		{Func: 1, MeanRPS: 4}, // hot throughout; overflow pipelines
	}})
	var kept []trace.Request
	for _, r := range tr.Requests {
		if r.Func == 0 && r.Arrival > 150 {
			continue
		}
		kept = append(kept, r)
	}
	tr.Requests = kept
	p.Run(tr, 60)
	if p.Migrations() == 0 {
		t.Error("no pipeline migration despite a freed large slice")
	}
}

func TestMigrationDisabledAblation(t *testing.T) {
	specs := specsFor(t, dnn.Medium)[:2]
	cl := cluster.New(cluster.Spec{
		Nodes: 1, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 1), CPUMemGB: 200,
	})
	p := New(cl, specs, Options{
		Policy: &scheduler.FluidFaaS{DisableMigration: true}, Seed: 21, IdleDemote: 10,
	})
	tr := flatTrace(specs, 3, 300, 21)
	p.Run(tr, 60)
	if p.Migrations() != 0 {
		t.Errorf("migrations = %d with migration disabled", p.Migrations())
	}
}

// After the run + keep-alive-free workload, no slice should be leaked to
// a phantom owner: every allocation is owned by a live instance or the
// time-sharing pool.
func TestNoSliceLeak(t *testing.T) {
	p := runOne(t, &scheduler.FluidFaaS{}, dnn.Small, 4, 200, 7)
	owners := map[string]bool{}
	for _, fn := range p.funcs {
		for _, inst := range fn.instances {
			owners[inst.id] = true
		}
	}
	for _, inv := range p.inv {
		owners[inv.sharedOwner()] = true
	}
	for _, g := range p.Cluster().AllGPUs() {
		for _, s := range g.Slices {
			if !s.Free() && !owners[s.Owner] {
				t.Errorf("slice %s owned by unknown %q", s.ID(), s.Owner)
			}
		}
	}
	// All requests accounted for, none stuck in flight.
	for _, fn := range p.funcs {
		for _, inst := range fn.instances {
			if inst.outstanding != 0 {
				t.Errorf("instance %s still has %d outstanding", inst.id, inst.outstanding)
			}
		}
		if fn.ts != nil && fn.ts.outstanding != 0 {
			t.Errorf("ts binding of %s still has %d outstanding", fn.spec.Name, fn.ts.outstanding)
		}
	}
}

func TestGPUTimeAccounting(t *testing.T) {
	p := runOne(t, &scheduler.ESG{}, dnn.Small, 5, 200, 7)
	gpu := p.Cluster().GPUTime(260)
	mig := p.Cluster().MIGTime(260)
	if gpu <= 0 || mig <= 0 {
		t.Fatalf("GPU time %.1f / MIG time %.1f should be positive", gpu, mig)
	}
	if gpu > mig+1e-9 {
		t.Errorf("GPU (union) time %.1f exceeds MIG (sum) time %.1f", gpu, mig)
	}
}

func TestUtilizationSampled(t *testing.T) {
	p := runOne(t, &scheduler.FluidFaaS{}, dnn.Medium, 8, 200, 7)
	if p.UtilGPCs.Len() == 0 || p.OccupiedGPCs.Len() == 0 {
		t.Fatal("utilization timelines empty")
	}
	if p.UtilGPCs.Max() <= 0 {
		t.Error("no GPC activity sampled")
	}
	for i, v := range p.UtilGPCs.Values {
		if v < 0 || v > 1 {
			t.Fatalf("sample %d out of range: %v", i, v)
		}
	}
}

func TestBreakdownComponentsPresent(t *testing.T) {
	p := runOne(t, &scheduler.FluidFaaS{}, dnn.Large, 10, 240, 19)
	b := p.Collector().MeanBreakdown()
	if b.Exec <= 0 {
		t.Error("no exec time in breakdown")
	}
	if b.Transfer <= 0 {
		t.Error("no transfer time despite pipelined instances")
	}
}

func TestNewPanicsOnBadInput(t *testing.T) {
	cl := cluster.New(cluster.DefaultSpec())
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil policy accepted")
			}
		}()
		New(cl, nil, Options{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("sparse IDs accepted")
			}
		}()
		New(cl, []FunctionSpec{{ID: 3}}, Options{Policy: &scheduler.FluidFaaS{}})
	}()
}
