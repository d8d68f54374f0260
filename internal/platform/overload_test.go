package platform

import (
	"fmt"
	"reflect"
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/metrics"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs/decisions"
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
			if got := b.Rejected() > 0; got != tc.wantRejected {
				t.Errorf("rejected = %d, want rejections: %v", b.Rejected(), tc.wantRejected)
			}
		})
	}
}

// TestRejectCountsAgree: on the rich rig, with admission and decisions
// on, the platform's event tally, the request collector and the
// decision recorder count the same rejections, and every reject record
// carries the deadline-estimate rule.
func TestRejectCountsAgree(t *testing.T) {
	dec := decisions.NewRecorder(0)
	p := runRich(t, Options{Decisions: dec})
	n := p.Rejected()
	if n == 0 {
		t.Fatal("no rejections; the rig lost its admission coverage")
	}
	if c := p.Collector().RejectedCount(); c != n {
		t.Errorf("collector counts %d rejections, platform %d", c, n)
	}
	if d := dec.Counts()["reject"]; d != n {
		t.Errorf("decision recorder counts %d rejections, platform %d", d, n)
	}
	for _, id := range dec.Requests() {
		for _, rec := range dec.Chain(id) {
			if rec.Kind == decisions.KindReject && rec.Rule != "deadline-estimate" {
				t.Fatalf("req %d: reject rule %q, want deadline-estimate", id, rec.Rule)
			}
		}
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
	// The detail is built only for readers such as this subscriber.
	var details []string
	p.Subscribe(func(ev Event) {
		if ev.Kind == EvReject {
			details = append(details, ev.Detail)
		}
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
	for _, d := range details {
		var est float64
		if _, err := fmt.Sscanf(d, "estimated completion %fs past deadline", &est); err != nil || est <= 0 {
			t.Fatalf("reject detail %q, want the estimate past the deadline", d)
		}
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
	if n := len(mono.inflight); n != drained {
		t.Errorf("replacement in flight = %d, want the %d drained requests",
			n, drained)
	}
	if !inst.retiring {
		t.Error("migrated pipeline not retiring")
	}
}
