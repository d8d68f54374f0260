package platform

import (
	"slices"
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/scheduler"
)

// TestPlanCacheServesSteadyRun: on a steady medium run the per-function
// planners must actually memoize — cache hits, and at least five
// lookups served per partition-list walk.
func TestPlanCacheServesSteadyRun(t *testing.T) {
	specs := specsFor(t, dnn.Medium)
	p := New(cluster.New(cluster.DefaultSpec()), specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 77})
	p.Run(flatTrace(specs, 8, 120, 77), 40)
	st := p.PlannerStats()
	if st.Hits == 0 {
		t.Fatalf("plan cache recorded no hits over a steady-state run: %+v", st)
	}
	if st.Walks() > st.Lookups()/5 {
		t.Errorf("%d walks for %d lookups, want at most one walk per 5 lookups", st.Walks(), st.Lookups())
	}
}

// TestRoundRobinAdvancesOnlyOnAdmit is the regression test for the
// satellite routing bugfix: the round-robin cursor used to move on
// every routedInstances call, so a request that found all instances
// saturated still rotated the cursor — and under sustained saturation
// the rotation decoupled from actual admits, skewing fairness. The
// cursor must move only when a request admits, and then past the
// instance that served it.
func TestRoundRobinAdvancesOnlyOnAdmit(t *testing.T) {
	// open builds three real monolithic instances, one per
	// default-partition slice, and fills every one not listed to
	// capacity.
	open := func(keep ...int) (*Platform, *Function) {
		p := New(smallCluster(1), specsFor(t, dnn.Small)[:1], Options{
			Policy:  &scheduler.FluidFaaS{DisableTimeSharing: true},
			Routing: RouteRoundRobin,
			Seed:    3,
		})
		fn := p.funcs[0]
		for i, inst := range launchMonos(t, p, fn, 3) {
			if !slices.Contains(keep, i) {
				saturate(p, inst)
			}
		}
		return p, fn
	}

	// Saturate everything: a request that admits nowhere must leave the
	// cursor exactly where it was (the old code advanced it here).
	p, fn := open()
	p.InjectRequest(0, 100)
	if fn.rrNext != 0 {
		t.Errorf("saturated scan moved the round-robin cursor to %d", fn.rrNext)
	}
	if fn.pending.Len() != 1 {
		t.Fatalf("saturated request should pend, pending = %d", fn.pending.Len())
	}

	// Open capacity at offset 1 only: the admit there must move the
	// cursor past the serving instance, to offset 2.
	p, fn = open(1)
	before := len(fn.instances[1].inflight)
	p.InjectRequest(0, 101)
	if len(fn.instances[1].inflight) != before+1 {
		t.Fatalf("request did not admit at the open instance")
	}
	if fn.rrNext != 2 {
		t.Errorf("cursor = %d after admit at offset 1, want 2", fn.rrNext)
	}
}
