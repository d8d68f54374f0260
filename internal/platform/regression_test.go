package platform

import (
	"testing"

	"fluidfaas/internal/dnn"
	"fluidfaas/internal/metrics"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
	"fluidfaas/internal/scheduler"
)

// TestReclaimIdleDrainsPending: when reclaimIdle moves a binding to a
// sibling pool slice, the function's pending overflow must drain into
// the new home immediately — not sit until the next completion or
// control tick (which may never come for an otherwise-idle function).
func TestReclaimIdleDrainsPending(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	cl := smallCluster(2)
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 7})
	inv := p.inv[0]
	fn := p.funcs[0]

	b := inv.bindTS(fn)
	if b == nil {
		t.Fatal("bindTS failed")
	}
	old := b.shared
	// A second, empty pool slice for the sibling move.
	if inv.growPool(fn) == nil {
		t.Fatal("growPool failed with free slices available")
	}

	p.eng.At(10, func() {
		// The binding has been idle 10 s (past reclaim's 5 s bar).
		// Overflow arrives just as exclusive demand forces reclamation.
		for i := 0; i < 2; i++ {
			fn.pending.Insert(&request{fn: fn, arrival: 10, deadline: 10 + fn.spec.SLO}, byDeadline)
		}
		if freed := inv.reclaimIdle(); freed != 1 {
			t.Errorf("freed %d slices, want 1", freed)
		}
		if b.shared == old {
			t.Error("binding did not sibling-move")
		}
		if b.outstanding == 0 {
			t.Error("sibling move did not drain pending into the new slice")
		}
		if fn.pending.Len()+b.outstanding != 2 {
			t.Errorf("pending %d + outstanding %d != 2 requests",
				fn.pending.Len(), b.outstanding)
		}
		if fn.pending.Len() > 0 && b.outstanding < b.capacity {
			t.Error("requests left pending with binding capacity to spare")
		}
	})
	p.eng.RunUntil(11)
}

// TestMigrationSkipsIdlePipeline: pipeline migration must not burn a
// freed large slice (and a model load) on a pipelined instance that has
// no in-flight work and a cooled-off tracker — that instance is about
// to be demoted anyway.
func TestMigrationSkipsIdlePipeline(t *testing.T) {
	specs := specsFor(t, dnn.Small)
	cl := smallCluster(2)
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 7})
	node := cl.Nodes[0]

	// Find a function that pipelines over two 1g slices and can also
	// run monolithically on the 4g slice within its SLO.
	avail := []mig.SliceType{mig.Slice1g, mig.Slice1g}
	var fn *Function
	var plan pipeline.Plan
	for _, f := range p.funcs {
		pl, _, err := pipeline.Construct(f.spec.DAG, f.spec.Parts, avail, f.spec.SLO)
		if err != nil || !pl.Pipelined() {
			continue
		}
		m := f.mono(mig.Slice4g)
		if !m.OK || m.Plan.Latency > f.spec.SLO || f.memGB > float64(mig.Slice4g.MemGB()) ||
			f.spec.DAG.MonoMinGPCs > mig.Slice4g.GPCs() {
			continue
		}
		fn, plan = f, pl
		break
	}
	if fn == nil {
		t.Fatal("no small function pipelines over {1g,1g} and fits a 4g monolith")
	}

	var inst *Instance
	p.eng.At(0, func() {
		slices := make([]*mig.Slice, len(plan.Stages))
		for i, sp := range plan.Stages {
			for _, sl := range node.FreeSlices() {
				if sl.Type == sp.SliceType && !containsSlice(slices, sl) {
					slices[i] = sl
					break
				}
			}
			if slices[i] == nil {
				t.Fatalf("no free %v slice for stage %d", sp.SliceType, i)
			}
		}
		inst = p.launchInstance(fn, node, plan, slices, 0)
	})

	free4g := func() *mig.Slice {
		for _, sl := range node.FreeSlices() {
			if sl.Type == mig.Slice4g {
				return sl
			}
		}
		t.Fatal("no free 4g slice")
		return nil
	}
	p.eng.At(100, func() {
		// 100 s idle, nothing outstanding: migration must skip it.
		p.tryMigration(free4g())
		if p.Migrations() != 0 {
			t.Fatal("migrated an idle pipeline with no outstanding work")
		}
		// With in-flight work the same instance is worth migrating.
		inst.admit(p, &request{fn: fn})
		p.tryMigration(free4g())
		if p.Migrations() != 1 {
			t.Error("did not migrate a pipeline with outstanding work")
		}
		if !inst.migrating || !inst.retiring {
			t.Error("migrated instance not marked migrating/retiring")
		}
	})
	p.eng.RunUntil(101)
}

func containsSlice(slices []*mig.Slice, sl *mig.Slice) bool {
	for _, s := range slices {
		if s == sl {
			return true
		}
	}
	return false
}

// TestDroppedPendingCompletionAtDropTime: a request dropped from the
// pending queue must record the drop time as its completion. A zero
// Completion made Latency() negative, poisoning mean/percentile stats.
func TestDroppedPendingCompletionAtDropTime(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	p := New(smallCluster(1), specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 7})
	fn := p.funcs[0]

	dropAt := 5 + pendingDrop*fn.spec.SLO + 1
	p.eng.At(5, func() {
		fn.pending.Insert(&request{
			fn: fn, arrival: 5, deadline: 5 + fn.spec.SLO,
			rec: metrics.RequestRecord{Arrival: 5, SLO: fn.spec.SLO},
		}, byDeadline)
	})
	p.eng.At(dropAt, func() { p.dropStalePending() })
	p.eng.RunUntil(dropAt + 1)

	recs := p.Collector().Records()
	if len(recs) != 1 {
		t.Fatalf("recorded %d requests, want 1", len(recs))
	}
	r := recs[0]
	if !r.Dropped {
		t.Fatal("stale pending request was not dropped")
	}
	if r.Completion != dropAt {
		t.Errorf("Completion = %v, want drop time %v", r.Completion, dropAt)
	}
	if r.Latency() <= 0 {
		t.Errorf("dropped request latency = %v, want positive", r.Latency())
	}
}
