package platform

import (
	"math"
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/keepalive"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
	"fluidfaas/internal/scheduler"
	"fluidfaas/internal/trace"
)

// smallCluster builds a 1-node cluster with n default-partition GPUs.
func smallCluster(n int) *cluster.Cluster {
	return cluster.New(cluster.Spec{
		Nodes: 1, GPUConfigs: mig.UniformNode(mig.DefaultConfig, n), CPUMemGB: 400,
	})
}

// TestBreakdownResidualConsistency: for every completed request,
// queue+load+exec+transfer must equal the end-to-end latency.
func TestBreakdownResidualConsistency(t *testing.T) {
	p := runOne(t, &scheduler.FluidFaaS{}, dnn.Medium, 8, 150, 23)
	for i, r := range p.Collector().Records() {
		if r.Dropped {
			continue
		}
		sum := r.Queue + r.Load + r.Exec + r.Transfer
		if math.Abs(sum-r.Latency()) > 1e-6 {
			t.Fatalf("record %d: components %.6f != latency %.6f", i, sum, r.Latency())
		}
		if r.Queue < 0 || r.Load < 0 || r.Exec <= 0 {
			t.Fatalf("record %d has nonsensical components: %+v", i, r)
		}
	}
}

// TestSharedSliceEDFOrdering: on a time-sharing slice, the request with
// the earliest adjusted deadline runs first even if enqueued later.
func TestSharedSliceEDFOrdering(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:2]
	// Give function 1 a much tighter SLO so its requests preempt (in
	// queue order) function 0's.
	specs[1].SLO = specs[1].SLO / 3
	cl := smallCluster(1)
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 31})
	inv := p.inv[0]

	// Bind both functions to the same shared slice and pre-load them so
	// no swaps confound ordering.
	b0 := inv.bindTS(p.funcs[0])
	b1 := inv.bindTS(p.funcs[1])
	if b0 == nil || b1 == nil || b0.shared != b1.shared {
		t.Fatalf("bindings not sharing a slice: %v %v", b0, b1)
	}
	b0.everLoaded = true
	b1.everLoaded = true

	// Occupy the slice so both test requests must queue, then enqueue
	// fn0 (loose deadline) before fn1 (tight deadline).
	ss := b0.shared
	p.eng.At(0, func() {
		ss.enqueue(p, b0, &request{fn: p.funcs[0], deadline: 100})
	})
	p.eng.At(0.001, func() {
		ss.enqueue(p, b0, &request{fn: p.funcs[0], deadline: 50})
		ss.enqueue(p, b1, &request{fn: p.funcs[1], deadline: 10})
	})
	// Run and inspect queue order directly: the fn1 job must be first.
	p.eng.RunUntil(0.002)
	if ss.queue.Len() != 2 {
		t.Fatalf("queue length = %d, want 2", ss.queue.Len())
	}
	if ss.queue.At(0).b != b1 {
		t.Errorf("EDF queue head is %s, want the tight-deadline function",
			ss.queue.At(0).b.fn.spec.Name)
	}
}

// TestRebindToFreshSlice: an overloaded binding moves to a new pool
// slice while its queued work drains on the old one.
func TestRebindToFreshSlice(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	cl := smallCluster(1)
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 31})
	inv := p.inv[0]
	fn := p.funcs[0]
	b := inv.bindTS(fn)
	if b == nil {
		t.Fatal("bindTS failed")
	}
	old := b.shared
	if !inv.rebindToFreshSlice(fn) {
		t.Fatal("rebind failed with free slices available")
	}
	if b.shared == old {
		t.Error("binding did not move")
	}
	if len(old.bindings) != 0 {
		t.Error("old slice still holds the binding")
	}
	if len(b.shared.bindings) != 1 || b.shared.bindings[0] != b {
		t.Error("new slice does not hold the binding")
	}
	// Rebind for a foreign invoker is refused.
	other := &Invoker{p: p, node: cl.Nodes[0]}
	if other.rebindToFreshSlice(fn) && b.shared.inv != other {
		t.Error("foreign invoker rebound the function")
	}
}

// TestReclaimIdlePool: idle pool slices free up when exclusive demand
// cannot be placed; recently-used bindings survive.
func TestReclaimIdlePool(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:2]
	cl := smallCluster(1)
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 31})
	inv := p.inv[0]
	b0 := inv.bindTS(p.funcs[0])
	if b0 == nil {
		t.Fatal("bindTS failed")
	}
	// Mark the binding recently used: reclaim must keep it.
	b0.tracker.Touch(p.eng.Now())
	if freed := inv.reclaimIdle(); freed != 0 {
		t.Errorf("reclaimed %d slices holding a recently-used binding", freed)
	}
	// Age it out and retry.
	p.eng.At(100, func() {
		if freed := inv.reclaimIdle(); freed != 1 {
			t.Errorf("reclaimed %d slices, want 1", freed)
		}
	})
	p.eng.RunUntil(101)
	if p.funcs[0].ts != nil {
		t.Error("binding survived reclamation with no sibling slice")
	}
	if len(inv.shared) != 0 {
		t.Errorf("pool still has %d slices", len(inv.shared))
	}
}

// TestAdmissionCapacity covers the capacity formula edge cases.
func TestAdmissionCapacity(t *testing.T) {
	if got := admissionCapacity(1.0, 0.3, 1); got != 3 {
		t.Errorf("capacity = %d, want 3", got)
	}
	if got := admissionCapacity(1.0, 2.0, 1); got != 1 {
		t.Errorf("capacity floor = %d, want 1", got)
	}
	if got := admissionCapacity(1.0, 0, 1); got != 1 {
		t.Errorf("capacity with zero bottleneck = %d, want 1", got)
	}
	if got := admissionCapacity(1.0, 0.3, 2); got != 6 {
		t.Errorf("capacity with slack 2 = %d, want 6", got)
	}
}

// TestWarmVsColdLoads: a function returning to a node within the
// keep-alive window loads warm; after the window it pays a cold start.
func TestWarmVsColdLoads(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	cl := smallCluster(1)
	p := New(cl, specs, Options{Policy: &scheduler.ESG{}, Seed: 31})
	fn := p.funcs[0]
	node := cl.Nodes[0]
	cold := p.loadTimeFor(fn, node, 0)
	if want := keepalive.ColdStartTime(fn.memGB); math.Abs(cold-want) > 1e-9 {
		t.Errorf("first load = %v, want cold %v", cold, want)
	}
	fn.lastNodeUse[node.ID] = 0
	warm := p.loadTimeFor(fn, node, 100)
	if want := keepalive.WarmLoadTime(fn.memGB); math.Abs(warm-want) > 1e-9 {
		t.Errorf("load within window = %v, want warm %v", warm, want)
	}
	late := p.loadTimeFor(fn, node, p.opts.KeepAlive+1)
	if late != cold {
		t.Errorf("load after window = %v, want cold %v", late, cold)
	}
}

// TestCrossPolicyDeterminism: all three policies are reproducible.
func TestCrossPolicyDeterminism(t *testing.T) {
	for _, pol := range []scheduler.Policy{&scheduler.ESG{}, &scheduler.INFlessMIG{}} {
		a := runOne(t, pol, dnn.Medium, 6, 120, 3)
		b := runOne(t, pol, dnn.Medium, 6, 120, 3)
		ra, rb := a.Collector().Records(), b.Collector().Records()
		if len(ra) != len(rb) {
			t.Fatalf("%s: lengths differ", pol.Name())
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: record %d differs", pol.Name(), i)
			}
		}
	}
}

// TestTSStateTransitionsExercised: under a rate that oscillates around
// the hotness threshold, bindings visit warm and get evicted.
func TestTSStateTransitionsExercised(t *testing.T) {
	specs := specsFor(t, dnn.Small)
	cl := smallCluster(1)
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 5})
	var streams []trace.StreamSpec
	for i := range specs {
		streams = append(streams, trace.StreamSpec{
			Func: i, MeanRPS: 0.3, BurstFactor: 6, BurstFraction: 0.1, BurstLen: 15,
		})
	}
	tr := trace.Generate(trace.Spec{Duration: 400, Seed: 5, Streams: streams})
	p.Run(tr, 60)
	if p.Evictions() == 0 {
		t.Error("no evictions under oscillating low-rate load")
	}
	hit := p.Collector().SLOHitRate()
	if hit < 0.2 {
		t.Errorf("SLO hit %.2f suspiciously low even for bursty cold traffic", hit)
	}
}

// TestArriveUnknownFunctionPanics guards the trace/spec contract.
func TestArriveUnknownFunctionPanics(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	p := New(smallCluster(1), specs, Options{Policy: &scheduler.ESG{}, Seed: 1})
	tr := &trace.Trace{
		Requests: []trace.Request{{ID: 0, Func: 5, Arrival: 1}},
		Duration: 10, NumFuncs: 6,
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown function did not panic")
		}
	}()
	p.Run(tr, 1)
}

// TestBatchingMode: with batching on, stages coalesce requests, every
// request completes, and accounting stays consistent.
func TestBatchingMode(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	cl := smallCluster(2)
	p := New(cl, specs, Options{
		Policy: &scheduler.ESG{}, Seed: 2, MaxBatch: 4,
	})
	tr := trace.Generate(trace.Spec{Duration: 120, Seed: 2, Streams: []trace.StreamSpec{
		{Func: 0, MeanRPS: 10},
	}})
	p.Run(tr, 60)
	col := p.Collector()
	if col.Len() != len(tr.Requests) {
		t.Fatalf("recorded %d of %d", col.Len(), len(tr.Requests))
	}
	for i, r := range col.Records() {
		if r.Dropped {
			continue
		}
		sum := r.Queue + r.Load + r.Exec + r.Transfer
		if math.Abs(sum-r.Latency()) > 1e-6 {
			t.Fatalf("record %d inconsistent: %.6f vs %.6f", i, sum, r.Latency())
		}
	}
	if col.Completed() < int(0.9*float64(col.Len())) {
		t.Errorf("completed %d of %d under batching", col.Completed(), col.Len())
	}
}

// batchedInstance builds a one-function platform batching up to four
// requests per stage, with a hand-built monolithic instance of 0.5 s
// exec launched to finish its initial load at loadTime.
func batchedInstance(t *testing.T, loadTime float64) (*Platform, *Instance) {
	t.Helper()
	p := New(smallCluster(1), specsFor(t, dnn.Small)[:1], Options{
		Policy: &scheduler.ESG{}, Seed: 1, MaxBatch: 4,
	})
	node := p.cl.Nodes[0]
	sl := node.FreeSlices()[0]
	plan := pipeline.Plan{
		Stages:  []pipeline.StagePlan{{SliceType: sl.Type, ExecTime: 0.5}},
		Latency: 0.5, Bottleneck: 0.5,
	}
	return p, p.launchInstance(p.funcs[0], node, plan, []*mig.Slice{sl}, loadTime)
}

// TestBatchedColdStartChargesLoad: a request that reaches a batching
// instance before its initial load finishes has that wait charged to
// Load, as an unbatched instance does; only the batching window after
// the load lands in Queue.
func TestBatchedColdStartChargesLoad(t *testing.T) {
	p, inst := batchedInstance(t, 1)
	inst.admit(p, &request{fn: inst.fn})
	p.eng.Run()
	r := p.col.Records()[0]
	if r.Load != 1 || r.Exec != 0.5 || math.Abs(r.Queue-batchWindow) > 1e-12 {
		t.Errorf("load=%v exec=%v queue=%v, want 1, 0.5 and the %v s window",
			r.Load, r.Exec, r.Queue, batchWindow)
	}
}

// TestBatchedExecIsServiceTime: a degradation that starts while a batch
// runs does not stretch the batch the engine already timed, so each
// request's Exec is the batch's service time and nothing is left over
// for Queue.
func TestBatchedExecIsServiceTime(t *testing.T) {
	p, inst := batchedInstance(t, 0)
	for i := range 4 {
		inst.admit(p, &request{id: i, fn: inst.fn})
	}
	p.eng.At(0.1, func() { p.degraded[inst.slices[0]] = 4 })
	p.eng.Run()
	service := 0.5 * math.Pow(4, batchGamma)
	for i, r := range p.col.Records() {
		if r.Exec != service || r.Completion != service || r.Queue != 0 {
			t.Errorf("request %d: exec=%v completion=%v queue=%v, want exec = completion = %v",
				i, r.Exec, r.Completion, r.Queue, service)
		}
	}
}

// TestRoutingOrders: all three orders serve the workload; the paper's
// latency-ascending order must not lose to the adversarial one.
func TestRoutingOrders(t *testing.T) {
	hits := map[RoutingOrder]float64{}
	for _, order := range []RoutingOrder{RouteLatencyAsc, RouteLatencyDesc, RouteRoundRobin} {
		specs := specsFor(t, dnn.Medium)
		cl := cluster.New(cluster.DefaultSpec())
		p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 4, Routing: order})
		tr := flatTrace(specs, 8, 200, 4)
		p.Run(tr, 40)
		hits[order] = p.Collector().SLOHitRate()
	}
	if hits[RouteLatencyAsc] < hits[RouteLatencyDesc]-0.05 {
		t.Errorf("latency-ascending routing (%.2f) lost badly to slowest-first (%.2f)",
			hits[RouteLatencyAsc], hits[RouteLatencyDesc])
	}
}

// TestHybridPartitionRun: the platform works on heterogeneous per-GPU
// partitions (Table 7 Hybrid).
func TestHybridPartitionRun(t *testing.T) {
	specs := specsFor(t, dnn.Medium)
	cl := cluster.New(cluster.Spec{Nodes: 2, GPUConfigs: mig.HybridNode(), CPUMemGB: 1440})
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 6})
	tr := flatTrace(specs, 6, 150, 6)
	p.Run(tr, 40)
	if p.Collector().Len() != len(tr.Requests) {
		t.Fatalf("recorded %d of %d", p.Collector().Len(), len(tr.Requests))
	}
	if hit := p.Collector().SLOHitRate(); hit < 0.4 {
		t.Errorf("hybrid-partition SLO hit %.2f suspiciously low", hit)
	}
}

// TestEventLog: the lifecycle events of a run reach a subscriber in
// order and cover the expected kinds.
func TestEventLog(t *testing.T) {
	var evs []Event
	p := runOne(t, &scheduler.FluidFaaS{}, dnn.Medium, 8, 150, 23, collect(&evs))
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	last := -1.0
	for _, e := range evs {
		if e.Time < last {
			t.Fatal("events out of order")
		}
		last = e.Time
		if e.String() == "" {
			t.Fatal("empty event render")
		}
	}
	counts := p.tally
	if counts[EvLaunch] == 0 {
		t.Error("no launch events")
	}
	if p.Evictions() > 0 && counts[EvEvict] == 0 {
		t.Error("evictions happened but no evict events")
	}
	if p.Migrations() > 0 && counts[EvMigrate] == 0 {
		t.Error("migrations happened but no migrate events")
	}
}

// TestEventLogRing: on a run below 4096 events, TotalEvents counts every
// event a subscriber sees and the deprecated DroppedEvents reports 0, as
// the retired 4096-event ring did.
func TestEventLogRing(t *testing.T) {
	checkEventTotals(t, 60, false)
}

// TestEventLogRingWraparound: on a run above 4096 events, TotalEvents
// still counts every event a subscriber sees, and DroppedEvents reports
// what the retired ring would have overwritten, TotalEvents()-4096.
func TestEventLogRingWraparound(t *testing.T) {
	checkEventTotals(t, 600, true)
}

// checkEventTotals runs a platform for duration seconds, requires its
// event count to be above 4096 exactly when over is set, and checks
// TotalEvents against a subscriber's stream and DroppedEvents against
// max(0, TotalEvents()-4096).
func checkEventTotals(t *testing.T, duration float64, over bool) {
	t.Helper()
	specs := specsFor(t, dnn.Medium)
	p := New(smallCluster(8), specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 23})
	var stream []Event
	p.Subscribe(collect(&stream))
	p.Run(flatTrace(specs, 8, duration, 23), 40)

	total := p.TotalEvents()
	if (total > eventLogCap) != over {
		t.Fatalf("run published %d events; this case needs over 4096 = %v", total, over)
	}
	if total != len(stream) {
		t.Errorf("TotalEvents = %d, subscriber saw %d", total, len(stream))
	}
	if got, want := p.DroppedEvents(), max(0, total-4096); got != want {
		t.Errorf("DroppedEvents = %d, want %d", got, want)
	}
}

// TestEventKindNames: every EventKind has a name and round-trips
// through its String form and ParseEventKind.
func TestEventKindNames(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		if k.String() == "" {
			t.Fatalf("event kind %d has no name", k)
		}
		got, err := ParseEventKind(k.String())
		if err != nil {
			t.Errorf("ParseEventKind(%q): %v", k.String(), err)
			continue
		}
		if got != k {
			t.Errorf("ParseEventKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseEventKind("no-such-kind"); err == nil {
		t.Error("ParseEventKind accepted an unknown name")
	}
}

// TestFragmentationSampled: the fragmentation series is recorded and
// bounded; under medium load with the 4g slices busy it must show
// meaningful fragmentation.
func TestFragmentationSampled(t *testing.T) {
	p := runOne(t, &scheduler.ESG{}, dnn.Medium, 8, 150, 23)
	if p.Fragmentation.Len() == 0 {
		t.Fatal("no fragmentation samples")
	}
	for _, v := range p.Fragmentation.Values {
		if v < 0 || v > 1 {
			t.Fatalf("fragmentation sample out of range: %v", v)
		}
	}
	if p.Fragmentation.Max() <= 0 {
		t.Error("fragmentation never rose above zero under medium ESG load")
	}
}
