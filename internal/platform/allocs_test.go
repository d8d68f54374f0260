package platform

import (
	"testing"

	"fluidfaas/internal/dnn"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/pipeline"
	"fluidfaas/internal/scheduler"
)

// twoStagePlatform builds a one-function platform, no observers, with a
// hand-built two-stage exclusive pipeline launched and already loaded,
// its stages batching up to maxBatch requests.
func twoStagePlatform(t *testing.T, maxBatch int) (*Platform, *Instance) {
	t.Helper()
	p := New(smallCluster(1), specsFor(t, dnn.Small)[:1], Options{
		Policy: &scheduler.ESG{}, Seed: 1, MaxBatch: maxBatch,
	})
	fn := p.funcs[0]
	node := p.cl.Nodes[0]
	free := node.FreeSlices()
	if len(free) < 2 {
		t.Fatalf("%d free slices, want two", len(free))
	}
	slices := []*mig.Slice{free[0], free[1]}
	plan := pipeline.Plan{
		Stages: []pipeline.StagePlan{
			{SliceType: slices[0].Type, ExecTime: 0.010, TransferOut: 0.002},
			{SliceType: slices[1].Type, ExecTime: 0.008},
		},
		Latency: 0.020, Bottleneck: 0.010,
	}
	return p, p.launchInstance(fn, node, plan, slices, 0)
}

// TestPipelineAllocsPerRequest: carrying a request through a two-stage
// exclusive pipeline allocates nothing in steady state, at 4 and at 64
// requests in flight, batched or not. The request and its stage job are
// recycled when it completes, and a recycled job keeps its bound hop
// callback. Stations, their batches, the hop event and the engine heap
// reuse their storage, so nothing is allocated per stage, batch or
// event either.
func TestPipelineAllocsPerRequest(t *testing.T) {
	for _, maxBatch := range []int{1, 4} {
		for _, n := range []int{4, 64} {
			if got := pipelineAllocs(t, maxBatch, n); got != 0 {
				t.Errorf("MaxBatch %d, %d in flight: a request costs %v allocations, want 0",
					maxBatch, n, got)
			}
		}
	}
}

// pipelineAllocs returns the allocations per request of running rounds
// of n requests through a two-stage pipeline batching up to maxBatch.
// Requests come from the platform's pool, as arrivals' do.
func pipelineAllocs(t *testing.T, maxBatch, n int) float64 {
	t.Helper()
	p, inst := twoStagePlatform(t, maxBatch)
	p.col.Reserve(200 * n)
	got := testing.AllocsPerRun(100, func() {
		for i := range n {
			rq := take(p, &p.reqPool, &p.reqFree)
			*rq = request{id: i, fn: inst.fn, arrival: p.eng.Now()}
			inst.admit(p, rq)
		}
		p.eng.Run()
	})
	if c := p.col.Completed(); c != 101*n {
		t.Fatalf("MaxBatch %d, n=%d: %d requests completed, want %d", maxBatch, n, c, 101*n)
	}
	return got / float64(n)
}

// TestKickScaleUpAllocatesNothing: a scale-up kick reuses the platform's
// one kick event and its callback bound at construction, so kicking and
// running the pass it schedules allocates nothing. The pass has demand
// that no free slice can take: the first one asks the policy, and every
// later one repeats that empty round at the same free-set generation,
// so it hits the empty-round memo without building free views.
func TestKickScaleUpAllocatesNothing(t *testing.T) {
	p, inst := twoStagePlatform(t, 1)
	for _, sl := range p.cl.Nodes[0].FreeSlices() {
		sl.Allocate("test", 0)
	}
	pol := &countingPolicy{Policy: p.opts.Policy}
	p.opts.Policy = pol
	kick := func() {
		inst.fn.rejectDemand = 1
		p.kickScaleUp()
		p.kickScaleUp() // coalesced into the pending pass
		p.eng.Run()
	}
	kick()
	if got := testing.AllocsPerRun(100, kick); got != 0 {
		t.Errorf("a scale-up kick allocates %v times, want 0", got)
	}
	if p.scaleKick {
		t.Error("the kicked pass did not run")
	}
	if pol.calls != 1 {
		t.Errorf("%d policy calls over 102 kicked passes, want 1 (the rest hit the memo)", pol.calls)
	}
}

// TestTransitionAllocatesNothingWithoutObservers: with no observer
// attached, logging a teardown transition that carries touched slices,
// a request and a decision builder allocates nothing. The builder never
// runs, and neither it, the touched list nor what the builder captures
// leaves the stack. The builder nests another closure made per call, as
// a rejection's does: each chaos-workload run logs about 83k rejections
// with provenance off. A whole rejection, which also records and
// recycles its request, allocates nothing either.
func TestTransitionAllocatesNothingWithoutObservers(t *testing.T) {
	p, inst := twoStagePlatform(t, 1)
	rq := &request{id: 1, fn: inst.fn}
	built := 0
	got := testing.AllocsPerRun(100, func() {
		est := p.eng.Now() + 1
		inputs := func() []decisions.KV { return []decisions.KV{kvF("estimate", est)} }
		p.logEvent(EvRelease, inst.id, "torn down", transition{
			touched: []*mig.Slice{inst.slices[0], inst.slices[1]}, teardown: true, rq: rq,
			decision: func() decisions.Record {
				built++
				return decisions.Record{Kind: decisions.KindDrop, Subject: inst.id, Inputs: inputs()}
			},
		})
	})
	if got != 0 {
		t.Errorf("a transition with observers off allocates %v times, want 0", got)
	}
	if built != 0 {
		t.Errorf("the decision builder ran %d times with provenance off", built)
	}
	if n := p.tally[EvRelease]; n < 100 {
		t.Errorf("%d release events logged, want at least 100", n)
	}
	// The recycled request escapes into the pool; the builder must not
	// go to the heap with it.
	p.col.Reserve(200)
	got = testing.AllocsPerRun(100, func() {
		rq := take(p, &p.reqPool, &p.reqFree)
		*rq = request{id: 2, fn: inst.fn}
		est := p.eng.Now() + 1
		p.reject(rq, "late", func() []decisions.KV { return []decisions.KV{kvF("estimate", est)} })
	})
	if got != 0 {
		t.Errorf("a rejection with observers off allocates %v times, want 0", got)
	}
}

// TestArrivalAllocsAmortized: an arrival that finds every instance full
// and parks pending allocates nothing of its own: its request comes
// from a block shared with the next arrivals, and the pending queue
// grows by doubling.
func TestArrivalAllocsAmortized(t *testing.T) {
	p := New(smallCluster(1), specsFor(t, dnn.Small)[:1], Options{
		Policy: &scheduler.ESG{}, Seed: 1,
	})
	for _, inst := range launchMonos(t, p, p.funcs[0], 3) {
		saturate(p, inst)
	}
	p.scaleKick = true
	id := 0
	got := testing.AllocsPerRun(1000, func() {
		id++
		p.InjectRequest(0, id)
	})
	if got != 0 {
		t.Errorf("an arrival parked pending allocates %v times, want 0", got)
	}
	if n := p.funcs[0].pending.Len(); n != 1001 {
		t.Fatalf("%d requests pending, want 1001", n)
	}
}

// TestServedArrivalAllocatesNothing: in steady state an arrival that is
// admitted, served and finalised allocates nothing. Its request and
// stage job are the ones the arrival before it left in the pools, so
// the whole run holds one of each.
func TestServedArrivalAllocatesNothing(t *testing.T) {
	p := New(smallCluster(1), specsFor(t, dnn.Small)[:1], Options{
		Policy: &scheduler.ESG{}, Seed: 1,
	})
	launchMonos(t, p, p.funcs[0], 1)
	p.col.Reserve(2000)
	id := 0
	got := testing.AllocsPerRun(1000, func() {
		id++
		p.InjectRequest(0, id)
		p.eng.Run()
	})
	if got != 0 {
		t.Errorf("a served arrival allocates %v times, want 0", got)
	}
	if c := p.col.Completed(); c != 1001 {
		t.Fatalf("%d requests served, want 1001", c)
	}
	if len(p.reqPool) != 1 || len(p.jobPool) != 1 {
		t.Errorf("pools hold %d requests and %d stage jobs, want 1 and 1",
			len(p.reqPool), len(p.jobPool))
	}
}

// TestServedTimeSharingAllocatesNothing: in steady state a request
// served on a time-sharing pool slice allocates nothing, as on the
// exclusive path: its request comes from the pool, its job waits in
// the slice's queue by value, and the slice's one completion event
// serves it. Each request runs a second of simulated time, so the
// binding's hotness window stays bounded.
func TestServedTimeSharingAllocatesNothing(t *testing.T) {
	p := New(smallCluster(1), specsFor(t, dnn.Small)[:1], Options{
		Policy: &scheduler.FluidFaaS{}, Seed: 1,
	})
	b := p.inv[0].bindTS(p.funcs[0])
	if b == nil {
		t.Fatal("bindTS failed")
	}
	b.everLoaded = true
	p.col.Reserve(2000)
	id := 0
	got := testing.AllocsPerRun(1000, func() {
		id++
		p.InjectRequest(0, id)
		p.eng.RunUntil(p.eng.Now() + 1)
	})
	if got != 0 {
		t.Errorf("a request served by time sharing allocates %v times, want 0", got)
	}
	if c := p.col.Completed(); c != 1001 {
		t.Fatalf("%d requests served, want 1001", c)
	}
	if !b.resident || len(p.funcs[0].instances) != 0 || p.Evictions() != 0 {
		t.Errorf("resident %v, %d exclusive instances, %d evictions: want the one resident binding to serve every request",
			b.resident, len(p.funcs[0].instances), p.Evictions())
	}
	if len(p.reqPool) != 1 {
		t.Errorf("pool holds %d requests, want 1", len(p.reqPool))
	}
}
