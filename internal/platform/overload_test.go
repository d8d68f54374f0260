package platform

import (
	"reflect"
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/metrics"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/overload"
	"fluidfaas/internal/pipeline"
	"fluidfaas/internal/scheduler"
)

// TestOverloadOffBitForBit: the deprecated FairQueue and Brownout
// fields are inert. Each row runs one rig twice, once with the base
// config and once with the inert fields added, and the two runs must be
// bit-for-bit identical down to the records, the lifecycle-event tally
// and the typed reject counters.
func TestOverloadOffBitForBit(t *testing.T) {
	// medium: the full medium catalog on the default cluster at a
	// serviceable rate.
	medium := func(oc overload.Config) *Platform {
		specs := specsFor(t, dnn.Medium)
		cl := cluster.New(cluster.DefaultSpec())
		p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 42, Overload: oc})
		p.Run(flatTrace(specs, 8, 120, 42), 60)
		return p
	}
	// saturated: TestAdmissionFastFail's rig, 25 rps per small function
	// on one GPU, where admission fast-fails requests.
	saturated := func(oc overload.Config) *Platform {
		specs := specsFor(t, dnn.Small)
		p := New(smallCluster(1), specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 7, Overload: oc})
		p.Run(flatTrace(specs, 25, 90, 7), 60)
		return p
	}
	for _, tc := range []struct {
		name         string
		rig          func(overload.Config) *Platform
		base, inert  overload.Config
		wantRejected bool
	}{
		{"fair-queue", medium, overload.Config{}, overload.Config{FairQueue: true}, false},
		{"brownout-under-admission", saturated,
			overload.Config{Admission: true}, overload.Config{Admission: true, Brownout: true}, true},
		{"fair-queue-and-brownout", medium,
			overload.Config{}, overload.Config{FairQueue: true, Brownout: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.rig(tc.base), tc.rig(tc.inert)
			ra, rb := a.Collector().Records(), b.Collector().Records()
			if len(ra) != len(rb) {
				t.Fatalf("record counts differ: %d vs %d", len(ra), len(rb))
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("record %d differs:\n%+v\n%+v", i, ra[i], rb[i])
				}
			}
			if ea, eb := a.CountEvents(), b.CountEvents(); !reflect.DeepEqual(ea, eb) {
				t.Errorf("event tallies differ:\n%v\n%v", ea, eb)
			}
			if ca, cb := a.RejectedByReason(), b.RejectedByReason(); !reflect.DeepEqual(ca, cb) {
				t.Errorf("reject reasons differ:\n%v\n%v", ca, cb)
			}
			if got := b.Rejected() > 0; got != tc.wantRejected {
				t.Errorf("rejected = %d, want rejections: %v", b.Rejected(), tc.wantRejected)
			}
		})
	}
}

// TestAdmissionFastFail: under sustained overload, admission control
// fast-fails requests at arrival (bounded rejection latency) instead of
// letting them die of client timeouts, and the system still serves
// traffic (rejections count as scale-up demand).
func TestAdmissionFastFail(t *testing.T) {
	specs := specsFor(t, dnn.Small)
	p := New(smallCluster(1), specs, Options{
		Policy: &scheduler.FluidFaaS{}, Seed: 7,
		Overload: overload.Config{Admission: true},
	})
	tr := flatTrace(specs, 25, 90, 7)
	p.Run(tr, 60)
	col := p.Collector()
	if col.RejectedCount() == 0 {
		t.Fatal("no fast-fail rejections under 25 rps/function on one GPU")
	}
	if p.Rejected() != col.RejectedCount() {
		t.Errorf("platform rejected counter %d != collector %d",
			p.Rejected(), col.RejectedCount())
	}
	for i, r := range col.Records() {
		if !r.Rejected {
			continue
		}
		if !r.Dropped {
			t.Fatalf("record %d rejected but not dropped", i)
		}
		if r.Latency() != 0 {
			t.Fatalf("record %d: fast-fail latency %.3f, want 0 (rejected at arrival)",
				i, r.Latency())
		}
	}
	if col.Completed() == 0 {
		t.Error("admission rejected everything: reject demand did not drive scale-up")
	}
	if p.CountEvents()[EvReject] == 0 {
		t.Error("no reject events logged")
	}
}

// TestDeadlineQueueOrder: a shared slice serves its queue by deadline
// minus estimated exec and load (§5.3), so a tight-deadline burst from
// one function runs ahead of a co-resident function's loose-deadline
// jobs.
func TestDeadlineQueueOrder(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:2]
	p := New(smallCluster(1), specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 3})
	inv := p.inv[0]
	b0 := inv.bindTS(p.funcs[0])
	b1 := inv.bindTS(p.funcs[1])
	if b0 == nil || b1 == nil || b0.shared != b1.shared {
		t.Fatalf("bindings not sharing a slice")
	}
	// Equalise service times so the pop order depends only on the
	// deadlines, not the models' relative exec costs.
	ss := b0.shared
	p.funcs[0].mono(ss.slice.Type).Plan.Latency = 0.2
	p.funcs[1].mono(ss.slice.Type).Plan.Latency = 0.2
	b0.everLoaded, b1.everLoaded = true, true

	// Hold the slice busy so all six jobs queue, then drain by hand.
	ss.serving = &tsJob{}
	for i := 0; i < 4; i++ {
		ss.enqueue(p, b0, &request{fn: b0.fn, deadline: 10 + float64(i)})
	}
	ss.enqueue(p, b1, &request{fn: b1.fn, deadline: 1000})
	ss.enqueue(p, b1, &request{fn: b1.fn, deadline: 1001})
	ss.serving = nil
	var order []int
	for ss.qlen() > 0 {
		order = append(order, ss.pop().b.fn.spec.ID)
	}
	if len(order) != 6 || order[4] != 1 || order[5] != 1 {
		t.Errorf("deadline queue order %v, want the loose-deadline jobs last", order)
	}
}

// TestDropStaleTSQueue is the regression test for the satellite bugfix:
// a request stuck in a shared-slice queue past the client timeout must
// be dropped by dropStalePending (it previously only swept fn.pending,
// so such requests were served long after the client had gone, wasting
// GPU time).
func TestDropStaleTSQueue(t *testing.T) {
	t.Run("deadline-queue", func(t *testing.T) {
		specs := specsFor(t, dnn.Small)[:2]
		p := New(smallCluster(1), specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 3})
		inv := p.inv[0]
		b0 := inv.bindTS(p.funcs[0])
		b1 := inv.bindTS(p.funcs[1])
		if b0 == nil || b1 == nil || b0.shared != b1.shared {
			t.Fatal("bindings not sharing a slice")
		}
		b0.everLoaded, b1.everLoaded = true, true
		ss := b0.shared
		// Make the blocking job's service far outlast the client
		// timeout, so the queued job is still waiting at sweep time.
		p.funcs[0].mono(ss.slice.Type).Plan.Latency = 50

		stale := &request{
			id: 1, fn: b1.fn, arrival: 0, deadline: b1.fn.spec.SLO,
			rec: metrics.RequestRecord{ID: 1, Func: 1, SLO: b1.fn.spec.SLO},
		}
		p.eng.At(0, func() {
			// A long-deadline job occupies the slice; the b1 job
			// queues behind it.
			ss.enqueue(p, b0, &request{fn: b0.fn, deadline: 1000})
			ss.enqueue(p, b1, stale)
		})
		// Well past pendingDrop*SLO, a control-loop sweep runs while
		// the job still sits in the queue.
		cut := pendingDrop*b1.fn.spec.SLO + 1
		p.eng.At(cut, func() {
			if ss.qlen() != 1 {
				t.Fatalf("queue length = %d before sweep, want the stuck job", ss.qlen())
			}
			p.dropStalePending()
			if ss.qlen() != 0 {
				t.Error("stale job survived the sweep")
			}
			if b1.outstanding != 0 {
				t.Errorf("binding outstanding = %d after drop, want 0", b1.outstanding)
			}
		})
		p.eng.RunUntil(cut + 0.001)
		if !stale.rec.Dropped || stale.rec.Rejected {
			t.Errorf("stale record = %+v, want a timeout drop", stale.rec)
		}
		if stale.rec.Completion != cut {
			t.Errorf("drop time = %v, want sweep time %v", stale.rec.Completion, cut)
		}
		found := false
		for _, r := range p.Collector().Records() {
			if r.ID == 1 && r.Dropped {
				found = true
			}
		}
		if !found {
			t.Error("dropped request not recorded")
		}
	})
}

// TestRoutedInstanceOrders covers the three routing orders over a
// hand-built instance list (satellite coverage task).
func TestRoutedInstanceOrders(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	p := New(smallCluster(1), specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 1})
	fn := p.funcs[0]
	mk := func(id string, lat float64) *Instance {
		return &Instance{id: id, fn: fn, plan: pipeline.Plan{Latency: lat}}
	}
	a, b, c := mk("a", 0.1), mk("b", 0.2), mk("c", 0.3)
	fn.instances = []*Instance{a, b, c} // latency-ascending invariant

	p.opts.Routing = RouteLatencyAsc
	got := p.routedInstances(fn)
	if got[0] != a || got[1] != b || got[2] != c {
		t.Errorf("ascending order wrong: %v", ids(got))
	}

	p.opts.Routing = RouteLatencyDesc
	got = p.routedInstances(fn)
	if got[0] != c || got[1] != b || got[2] != a {
		t.Errorf("descending order wrong: %v", ids(got))
	}
	if fn.instances[0] != a {
		t.Error("descending view mutated the underlying slice")
	}

	p.opts.Routing = RouteRoundRobin
	// routedInstances is a pure inspection: repeated calls must return
	// the same rotation (the cursor only moves when a request admits,
	// via advanceRoundRobin).
	for i := 0; i < 3; i++ {
		got = p.routedInstances(fn)
		if len(got) != 3 {
			t.Fatalf("round-robin returned %d instances", len(got))
		}
		if got[0] != a || got[1] != b || got[2] != c {
			t.Fatalf("inspection call %d moved the cursor: %v", i, ids(got))
		}
	}
	// Admits advance the cursor past the serving instance: each admit at
	// offset k in the returned order starts the next scan at k+1.
	firsts := map[string]int{}
	for i := 0; i < 6; i++ {
		got = p.routedInstances(fn)
		// Each view is a rotation: order must be preserved cyclically.
		for j := 1; j < 3; j++ {
			prev, cur := got[j-1], got[j]
			if !(prev == a && cur == b || prev == b && cur == c || prev == c && cur == a) {
				t.Fatalf("round-robin view %v is not a rotation", ids(got))
			}
		}
		firsts[got[0].id]++
		p.advanceRoundRobin(fn, 0) // the head instance admitted
	}
	// Over 6 admits every instance leads exactly twice: rotation fairness.
	for _, inst := range []*Instance{a, b, c} {
		if firsts[inst.id] != 2 {
			t.Errorf("instance %s led %d of 6 admits, want 2", inst.id, firsts[inst.id])
		}
	}
	// An admit deeper in the scan (offset k) moves the cursor past the
	// instance that served, not just one step.
	fn.rrNext = 0
	p.advanceRoundRobin(fn, 1) // head was full; b (offset 1) admitted
	if got = p.routedInstances(fn); got[0] != c {
		t.Errorf("after admit at offset 1 the scan should start at c, got %v", ids(got))
	}

	// Empty instance list under round-robin must not panic or divide by
	// zero.
	fn.instances = nil
	if got := p.routedInstances(fn); len(got) != 0 {
		t.Errorf("round-robin over no instances returned %v", ids(got))
	}
}

func ids(insts []*Instance) []string {
	out := make([]string, len(insts))
	for i, inst := range insts {
		out[i] = inst.id
	}
	return out
}

// TestMigrationDrainsPending is the regression test for the satellite
// bugfix: tryMigration used to discard the freshly launched monolithic
// instance, stranding the function's pending overflow until the next
// completion or control tick. The new instance must absorb pending
// requests immediately.
func TestMigrationDrainsPending(t *testing.T) {
	specs := specsFor(t, dnn.Medium)[:1]
	// One default-partition GPU supplies the 4g migration target; a
	// fully fragmented GPU supplies 1g slices for the pipeline.
	cl := cluster.New(cluster.Spec{
		Nodes: 1, CPUMemGB: 400,
		GPUConfigs: []mig.Config{mig.DefaultConfig, mig.ConfigFull1g},
	})
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 1})
	fn := p.funcs[0]
	node := cl.Nodes[0]

	// Build a pipelined instance on small slices, leaving a big slice
	// free as the migration target.
	free := node.FreeSlices()
	var small []*mig.Slice
	var target *mig.Slice
	for _, sl := range free {
		if sl.Type == mig.Slice4g && target == nil {
			target = sl
		}
		// Only 1g slices feed the pipeline, so Construct cannot pick
		// a monolithic placement.
		if sl.Type == mig.Slice1g {
			small = append(small, sl)
		}
	}
	if target == nil {
		t.Fatal("no 4g slice free")
	}
	types := make([]mig.SliceType, len(small))
	for i, sl := range small {
		types[i] = sl.Type
	}
	plan, _, err := pipeline.Construct(fn.spec.DAG, fn.spec.Parts, types, fn.spec.SLO)
	if err != nil {
		t.Fatalf("no pipelined plan over %v: %v", types, err)
	}
	if !plan.Pipelined() {
		t.Fatalf("construct returned a monolithic plan over %v", types)
	}
	slices := make([]*mig.Slice, len(plan.Stages))
	used := map[*mig.Slice]bool{}
	for i, sp := range plan.Stages {
		for _, sl := range small {
			if sl.Type == sp.SliceType && !used[sl] {
				slices[i], used[sl] = sl, true
				break
			}
		}
		if slices[i] == nil {
			t.Fatalf("no free slice for stage %d (%v)", i, sp.SliceType)
		}
	}
	inst := p.launchInstance(fn, node, plan, slices, 0)

	// Keep the pipeline busy (a migration candidate) and stack overflow
	// in fn.pending.
	inst.admit(p, &request{id: 0, fn: fn, deadline: 100})
	for i := 1; i <= 3; i++ {
		fn.pushPending(&request{id: i, fn: fn, deadline: 100 + float64(i)})
	}

	p.tryMigration(target)
	if p.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1", p.Migrations())
	}
	var mono *Instance
	for _, cand := range fn.instances {
		if !cand.Pipelined() && !cand.retiring {
			mono = cand
		}
	}
	if mono == nil {
		t.Fatal("no monolithic replacement instance")
	}
	drained := 3 - len(fn.pending)
	if drained == 0 {
		t.Fatal("pending overflow not drained into the migrated instance")
	}
	if mono.outstanding != drained {
		t.Errorf("replacement outstanding = %d, want the %d drained requests",
			mono.outstanding, drained)
	}
	if !inst.retiring {
		t.Error("migrated pipeline not retiring")
	}
}
