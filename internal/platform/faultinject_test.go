package platform

import (
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/faults"
	"fluidfaas/internal/metrics"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/scheduler"
)

// TestZeroFaultSpecBitForBit: a nil fault spec and an all-zero fault
// spec must both be bit-for-bit identical to a run without the faults
// layer — same records, same lifecycle events, same launches. This is
// the guarantee that adding the subsystem changed nothing for existing
// experiments.
func TestZeroFaultSpecBitForBit(t *testing.T) {
	run := func(spec *faults.Spec) *Platform {
		specs := specsFor(t, dnn.Medium)
		cl := cluster.New(cluster.DefaultSpec())
		p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 23, Faults: spec})
		tr := flatTrace(specs, 8, 150, 23)
		p.Run(tr, 60)
		return p
	}
	a, b := run(nil), run(&faults.Spec{})
	ra, rb := a.Collector().Records(), b.Collector().Records()
	if len(ra) != len(rb) {
		t.Fatalf("record counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("record %d differs with a zero fault spec: %+v vs %+v", i, ra[i], rb[i])
		}
	}
	if a.Launched() != b.Launched() {
		t.Errorf("launch counts differ: %d vs %d", a.Launched(), b.Launched())
	}
	if a.tally != b.tally {
		t.Errorf("event counts differ: %v vs %v", a.tally, b.tally)
	}
	if b.FaultsInjected() != 0 || b.Retries() != 0 {
		t.Errorf("zero-rate spec injected %d faults, %d retries",
			b.FaultsInjected(), b.Retries())
	}
}

// TestFaultRunDeterministic: with nonzero fault rates, the same seed
// reproduces the same faults, retries and records exactly.
func TestFaultRunDeterministic(t *testing.T) {
	run := func() *Platform {
		specs := specsFor(t, dnn.Small)
		cl := cluster.New(cluster.Spec{
			Nodes: 2, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 2), CPUMemGB: 400,
		})
		p := New(cl, specs, Options{
			Policy: &scheduler.FluidFaaS{}, Seed: 23,
			Faults: &faults.Spec{SliceRate: 0.02, GPURate: 0.005, NodeRate: 0.001},
		})
		tr := flatTrace(specs, 5, 150, 23)
		p.Run(tr, 60)
		return p
	}
	a, b := run(), run()
	if a.FaultsInjected() == 0 {
		t.Fatal("no faults injected at these rates over 210 s")
	}
	if a.FaultsInjected() != b.FaultsInjected() || a.Recoveries() != b.Recoveries() ||
		a.Retries() != b.Retries() {
		t.Fatalf("fault counters differ: %d/%d/%d vs %d/%d/%d",
			a.FaultsInjected(), a.Recoveries(), a.Retries(),
			b.FaultsInjected(), b.Recoveries(), b.Retries())
	}
	ra, rb := a.Collector().Records(), b.Collector().Records()
	if len(ra) != len(rb) {
		t.Fatalf("record counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("record %d differs across identical faulty runs", i)
		}
	}
}

// TestFaultRunAllPolicies: every policy survives a moderately faulty
// run without panicking, records every request, and reports a sane
// availability.
func TestFaultRunAllPolicies(t *testing.T) {
	for _, pol := range []scheduler.Policy{
		&scheduler.FluidFaaS{}, &scheduler.ESG{}, &scheduler.INFlessMIG{},
	} {
		specs := specsFor(t, dnn.Small)
		cl := cluster.New(cluster.Spec{
			Nodes: 2, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 2), CPUMemGB: 400,
		})
		p := New(cl, specs, Options{
			Policy: pol, Seed: 17,
			Faults: &faults.Spec{SliceRate: 0.05, GPURate: 0.01, NodeRate: 0.002},
		})
		tr := flatTrace(specs, 5, 120, 17)
		p.Run(tr, 60)
		col := p.Collector()
		if col.Len() != len(tr.Requests) {
			t.Errorf("%s: recorded %d of %d requests under faults",
				pol.Name(), col.Len(), len(tr.Requests))
		}
		if av := col.Availability(); av < 0 || av > 1 {
			t.Errorf("%s: availability %v out of range", pol.Name(), av)
		}
		if p.FaultsInjected() == 0 {
			t.Errorf("%s: no faults injected", pol.Name())
		}
	}
}

// TestScriptedGPUFaultsRetryInFlight: when every GPU fails under load,
// in-flight requests are retried, availability dips, and completions
// resume after the hardware recovers.
func TestScriptedGPUFaultsRetryInFlight(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:3]
	cl := smallCluster(2)
	spec := &faults.Spec{Script: []faults.Event{
		{Time: 30, Kind: faults.GPUFault, Node: 0, GPU: 0, Slice: -1, Recovery: 60},
		{Time: 30, Kind: faults.GPUFault, Node: 0, GPU: 1, Slice: -1, Recovery: 60},
	}}
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 13, Faults: spec})
	tr := flatTrace(specs, 8, 120, 13)
	p.Run(tr, 60)

	if p.FaultsInjected() != 2 || p.Recoveries() != 2 {
		t.Fatalf("faults/recoveries = %d/%d, want 2/2", p.FaultsInjected(), p.Recoveries())
	}
	if p.Retries() == 0 {
		t.Error("no retries despite both GPUs failing under 24 rps")
	}
	col := p.Collector()
	if col.Len() != len(tr.Requests) {
		t.Fatalf("recorded %d of %d requests", col.Len(), len(tr.Requests))
	}
	if col.RetriedCount() == 0 {
		t.Error("no request records carry a retry count")
	}
	resumed := false
	for _, r := range col.Records() {
		if r.Arrival > 60 && !r.Dropped {
			resumed = true
			break
		}
	}
	if !resumed {
		t.Error("no completions after the GPUs recovered")
	}
	counts := p.tally
	if counts[EvFault] != 2 || counts[EvRecover] != 2 {
		t.Errorf("event counts fault=%d recover=%d, want 2/2",
			counts[EvFault], counts[EvRecover])
	}
	if counts[EvRetry] == 0 {
		t.Error("no retry events recorded")
	}
}

// TestNodeCrashAndRecovery: a node crash tears down everything on the
// node and loses its warm host memory; the node rejoins placement after
// repair and the run completes cleanly.
func TestNodeCrashAndRecovery(t *testing.T) {
	specs := specsFor(t, dnn.Small)
	cl := cluster.New(cluster.Spec{
		Nodes: 2, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 2), CPUMemGB: 400,
	})
	spec := &faults.Spec{Script: []faults.Event{
		{Time: 30, Kind: faults.NodeCrash, Node: 0, GPU: -1, Slice: -1, Recovery: 80},
	}}
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 11, Faults: spec})
	tr := flatTrace(specs, 4, 120, 11)
	p.Run(tr, 60)

	if p.FaultsInjected() != 1 || p.Recoveries() != 1 {
		t.Fatalf("faults/recoveries = %d/%d, want 1/1", p.FaultsInjected(), p.Recoveries())
	}
	if !cl.Nodes[0].Healthy() {
		t.Error("node 0 still unhealthy after its recovery event")
	}
	if p.Collector().Len() != len(tr.Requests) {
		t.Fatalf("recorded %d of %d requests", p.Collector().Len(), len(tr.Requests))
	}
	counts := p.tally
	if counts[EvFault] != 1 || counts[EvRecover] != 1 {
		t.Errorf("event counts fault=%d recover=%d, want 1/1",
			counts[EvFault], counts[EvRecover])
	}
}

// TestSliceFaultTearsDownPoolAndRetries: an ECC fault on a time-sharing
// pool slice kills the in-service request's hardware; the request
// retries, the function rebinds on healthy hardware, and the request
// completes with its retry recorded.
func TestSliceFaultTearsDownPoolAndRetries(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	cl := smallCluster(2)
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 9})
	fn := p.funcs[0]
	p.eng.At(0, func() { p.InjectRequest(0, 0) })
	var failedSlice *mig.Slice
	p.eng.At(0.01, func() {
		if fn.ts == nil {
			t.Fatal("request did not create a time-sharing binding")
		}
		failedSlice = fn.ts.shared.slice
		node := cl.Nodes[0]
		for gi, g := range node.GPUs {
			for si, s := range g.Slices {
				if s == failedSlice {
					p.injectFault(faults.Event{
						Time: 0.01, Kind: faults.SliceFault,
						Node: 0, GPU: gi, Slice: si, Recovery: 1e9,
					})
					return
				}
			}
		}
		t.Fatal("pool slice not found in topology")
	})
	p.eng.RunUntil(120)

	if p.FaultsInjected() != 1 {
		t.Fatalf("faults injected = %d, want 1", p.FaultsInjected())
	}
	if p.Retries() != 1 {
		t.Fatalf("retries = %d, want 1", p.Retries())
	}
	recs := p.Collector().Records()
	if len(recs) != 1 {
		t.Fatalf("recorded %d requests, want 1", len(recs))
	}
	r := recs[0]
	if r.Dropped || r.Failed {
		t.Fatalf("request failed despite healthy spare hardware: %+v", r)
	}
	if r.Retries != 1 {
		t.Errorf("record retries = %d, want 1", r.Retries)
	}
	if fn.ts == nil {
		t.Error("function did not rebind after the fault")
	} else if fn.ts.shared.slice == failedSlice {
		t.Error("function rebound onto the failed slice")
	}
	if !failedSlice.Free() {
		t.Error("failed slice still allocated after teardown")
	}
	if failedSlice.Healthy() {
		t.Error("failed slice reported healthy")
	}
}

// TestRetryExhaustionFailsRequest: a request whose retry budget is
// spent is recorded as a failed drop at the time of the final fault,
// with a positive latency.
func TestRetryExhaustionFailsRequest(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	p := New(smallCluster(1), specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 1})
	fn := p.funcs[0]
	p.eng.At(1, func() {
		rq := &request{
			fn: fn, arrival: 1, deadline: 1 + fn.spec.SLO,
			rec: metrics.RequestRecord{Arrival: 1, SLO: fn.spec.SLO},
		}
		rq.attempts = retryMaxAttempts // budget already spent
		p.retryAfterFault(rq, "test exhaustion")
	})
	p.eng.RunUntil(2)

	col := p.Collector()
	if col.Len() != 1 {
		t.Fatalf("recorded %d requests, want 1", col.Len())
	}
	r := col.Records()[0]
	if !r.Failed || !r.Dropped {
		t.Fatalf("exhausted request not a failed drop: %+v", r)
	}
	if r.Completion != 1 {
		t.Errorf("Completion = %v, want the abandon time 1", r.Completion)
	}
	if r.Latency() != 0 {
		// Arrival == abandon time here; latency is zero, not negative.
		t.Errorf("latency = %v, want 0", r.Latency())
	}
	if col.FailedCount() != 1 {
		t.Errorf("FailedCount = %d, want 1", col.FailedCount())
	}
	if av := col.Availability(); av != 0 {
		t.Errorf("availability = %v, want 0 with the only request failed", av)
	}
}
