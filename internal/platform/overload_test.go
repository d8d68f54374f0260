package platform

import (
	"fmt"
	"slices"
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/keepalive"
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
			if ea, eb := a.tally, b.tally; ea != eb {
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
	if p.tally[EvReject] == 0 {
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
	ss.serving = tsJob{rq: &request{}}
	for i := 0; i < 4; i++ {
		ss.enqueue(p, b0, &request{fn: b0.fn, deadline: 10 + float64(i)})
	}
	ss.enqueue(p, b1, &request{fn: b1.fn, deadline: 1000})
	ss.enqueue(p, b1, &request{fn: b1.fn, deadline: 1001})
	ss.serving = tsJob{}
	var order []int
	for ss.queue.Len() > 0 {
		order = append(order, ss.queue.Pop().b.fn.spec.ID)
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
			if ss.queue.Len() != 1 {
				t.Fatalf("queue length = %d before sweep, want the stuck job", ss.queue.Len())
			}
			p.dropStalePending()
			if ss.queue.Len() != 0 {
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
		fn.pending.Insert(&request{id: i, fn: fn, deadline: 100 + float64(i)}, byDeadline)
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
	drained := 3 - fn.pending.Len()
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

// admissionCandidates lists the estimates the admission gate weighs, in
// its order: every exclusive instance with capacity (by hasCapacity, not
// the open set), then the time-sharing binding if it has room.
func admissionCandidates(p *Platform, fn *Function) []float64 {
	now := p.eng.Now()
	var c []float64
	for _, inst := range fn.instances {
		if inst.hasCapacity() {
			wait := max(inst.loadEndsAt-now, 0)
			c = append(c, wait+float64(len(inst.inflight))*inst.plan.Bottleneck+inst.plan.Latency)
		}
	}
	if b := fn.ts; b != nil && b.outstanding < b.capacity {
		c = append(c, b.shared.queuedWork+b.shared.servingWork+b.estLoad()+b.execOn())
	}
	return c
}

// fullMinimum is the admission estimate as a full scan computes it: the
// least candidate, or with none the scale-up path (a fresh instance's
// load and exec plus the backlog ahead in waves of four instances).
func fullMinimum(p *Platform, fn *Function) float64 {
	if c := admissionCandidates(p, fn); len(c) > 0 {
		return slices.Min(c)
	}
	exec := fn.bestExec()
	load := keepalive.ColdStartTime(fn.memGB)
	for _, last := range fn.lastNodeUse {
		if p.eng.Now()-last < p.opts.KeepAlive {
			load = keepalive.WarmLoadTime(fn.memGB)
			break
		}
	}
	par := 4 * fn.bestCapacity(queueSlack)
	return load + exec + float64(fn.pending.Len()/par)*exec
}

// TestAdmissionStopsAtFirstPass: the admission gate accepts at the first
// candidate that meets the deadline, in routing order, and only on a
// rejection computes the full minimum (or the scale-up path), which must
// equal a full scan's. Each case builds its state through launchInstance,
// admit, forget and bindTS, at time 0 with the admission slack of 1, so
// a candidate passes exactly when its estimate is at most the deadline.
func TestAdmissionStopsAtFirstPass(t *testing.T) {
	if overload.AdmissionSlack != 1 {
		t.Fatalf("AdmissionSlack = %v; the deadlines below assume 1", overload.AdmissionSlack)
	}
	// build launches a monolithic instance on each of the node's first
	// len(loads) free slices (4g, then 2g: routing order) with the given
	// model-load times, and binds fn's time-sharing slice if ts is set.
	build := func(ts bool, loads ...float64) (*Platform, *Function, []*Instance) {
		p := New(smallCluster(2), specsFor(t, dnn.Small)[:1], Options{
			Policy: &scheduler.FluidFaaS{}, Seed: 1, Overload: overload.Config{Admission: true},
		})
		fn := p.funcs[0]
		node := p.cl.Nodes[0]
		free := node.FreeSlices()
		var insts []*Instance
		for i, load := range loads {
			insts = append(insts, p.launchInstance(fn, node, fn.mono(free[i].Type).Plan, free[i:i+1], load))
		}
		if ts && p.inv[0].bindTS(fn) == nil {
			t.Fatal("no time-sharing binding")
		}
		return p, fn, insts
	}
	fill := func(p *Platform, inst *Instance, n int) []*request {
		var rqs []*request
		for i := 0; i < n; i++ {
			rq := &request{fn: inst.fn}
			inst.admit(p, rq)
			rqs = append(rqs, rq)
		}
		return rqs
	}
	for _, c := range []struct {
		name string
		// setup returns the platform and the deadline to test.
		setup func() (*Platform, *Function, float64)
		// accept is the candidate that must accept, in routing order;
		// -1 when none does, and the full minimum (with no candidates,
		// the scale-up path) decides.
		accept int
	}{
		{"first instance, not the least", func() (*Platform, *Function, float64) {
			p, fn, insts := build(false, 0, 0)
			fill(p, insts[0], 1) // 2 x 0.167 s > 0.219 s, still open
			c := admissionCandidates(p, fn)
			if !(c[0] > c[1]) {
				t.Fatalf("candidates %v: the first is the least", c)
			}
			return p, fn, c[0]
		}, 0},
		{"later instance", func() (*Platform, *Function, float64) {
			p, fn, insts := build(false, 0, 0)
			fill(p, insts[0], 1)
			return p, fn, admissionCandidates(p, fn)[1]
		}, 1},
		{"time-sharing binding", func() (*Platform, *Function, float64) {
			p, fn, insts := build(true, 20, 0)
			// The 2g instance is full (capacity 1) and so skipped; one
			// request forgotten from the 4g one leaves it open but late.
			fill(p, insts[1], 1)
			rqs := fill(p, insts[0], 2)
			insts[0].forget(rqs[1])
			c := admissionCandidates(p, fn)
			if len(c) != 2 {
				t.Fatalf("candidates %v, want the 4g instance and the binding", c)
			}
			return p, fn, c[1]
		}, 1},
		{"reject, every candidate late", func() (*Platform, *Function, float64) {
			p, fn, _ := build(true, 20, 3) // the least is neither first nor last
			return p, fn, 1
		}, -1},
		{"reject on the scale-up path", func() (*Platform, *Function, float64) {
			p, fn, insts := build(false, 0)
			saturate(p, insts[0])
			return p, fn, 0.1
		}, -1},
		{"accept on the scale-up path", func() (*Platform, *Function, float64) {
			p, fn, _ := build(false)
			return p, fn, fn.spec.SLO * 1000
		}, -1},
	} {
		p, fn, deadline := c.setup()
		cands := admissionCandidates(p, fn)
		full := fullMinimum(p, fn)
		est, late := p.completionEstimate(fn, deadline)
		switch {
		case c.accept >= 0:
			if late || est != cands[c.accept] {
				t.Errorf("%s: est %v late %v, want candidate %d of %v, not late", c.name, est, late, c.accept, cands)
			}
			for _, e := range cands[:c.accept] {
				if e <= deadline {
					t.Errorf("%s: an earlier candidate (%v) meets deadline %v", c.name, e, deadline)
				}
			}
		case len(cands) == 0 && full <= deadline:
			if late {
				t.Errorf("%s: rejected a request the scale-up path (%v) serves by %v", c.name, full, deadline)
			}
		default:
			if !late || est != full {
				t.Errorf("%s: est %v late %v, want the full minimum %v, late", c.name, est, late, full)
			}
		}
		want := full > deadline
		if got := p.admissionReject(&request{fn: fn, deadline: deadline}); got != want || late != want {
			t.Errorf("%s: admissionReject = %v, late = %v, want %v", c.name, got, late, want)
		}
		if n := p.Rejected(); (n == 1) != want || n > 1 {
			t.Errorf("%s: platform counted %d rejections", c.name, n)
		}
	}
}
