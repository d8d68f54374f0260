package platform

import (
	"fmt"
	"math"
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/keepalive"
	"fluidfaas/internal/scheduler"
)

// tsFixture binds the first two small functions onto one shared slice
// and pre-loads them, returning the platform, bindings and slice.
func tsFixture(t *testing.T) (*Platform, *tsBinding, *tsBinding, *sharedSlice) {
	t.Helper()
	specs := specsFor(t, dnn.Small)[:2]
	p := New(smallCluster(1), specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 3})
	inv := p.inv[0]
	b0 := inv.bindTS(p.funcs[0])
	b1 := inv.bindTS(p.funcs[1])
	if b0 == nil || b1 == nil || b0.shared != b1.shared {
		t.Fatalf("bindings not sharing a slice: %v %v", b0, b1)
	}
	b0.everLoaded = true
	b1.everLoaded = true
	return p, b0, b1, b0.shared
}

// TestEnqueuePriorityTable: the queue orders by deadline minus
// estimated execution and load (§5.3), not by arrival; ties keep
// arrival order (stable sort).
func TestEnqueuePriorityTable(t *testing.T) {
	cases := []struct {
		name string
		// jobs are enqueued in order while the slice is busy; binding
		// index selects b0 or b1, deadline sets the priority input.
		jobs []struct {
			binding  int
			deadline float64
		}
		// wantOrder are job indices in expected queue order.
		wantOrder []int
	}{
		{
			name: "earliest deadline first regardless of arrival",
			jobs: []struct {
				binding  int
				deadline float64
			}{{0, 100}, {0, 50}, {1, 10}},
			wantOrder: []int{2, 1, 0},
		},
		{
			name: "already-sorted input unchanged",
			jobs: []struct {
				binding  int
				deadline float64
			}{{0, 10}, {0, 20}, {1, 300}},
			wantOrder: []int{0, 1, 2},
		},
		{
			name: "same binding same deadline keeps arrival order",
			jobs: []struct {
				binding  int
				deadline float64
			}{{0, 50}, {0, 50}, {0, 50}},
			wantOrder: []int{0, 1, 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, b0, b1, ss := tsFixture(t)
			bindings := []*tsBinding{b0, b1}
			// A blocker request occupies the slice so the case's jobs
			// queue instead of starting service.
			p.eng.At(0, func() {
				ss.enqueue(p, b0, &request{fn: b0.fn, deadline: 1000})
			})
			jobs := make([]*request, len(tc.jobs))
			p.eng.At(0.001, func() {
				for i, j := range tc.jobs {
					jobs[i] = &request{fn: bindings[j.binding].fn, deadline: j.deadline}
					ss.enqueue(p, bindings[j.binding], jobs[i])
				}
			})
			p.eng.RunUntil(0.002)
			if ss.queue.Len() != len(tc.jobs) {
				t.Fatalf("queue length = %d, want %d", ss.queue.Len(), len(tc.jobs))
			}
			for qi, ji := range tc.wantOrder {
				if ss.queue.At(qi).rq != jobs[ji] {
					t.Errorf("queue[%d] is job with deadline %v, want job %d (deadline %v)",
						qi, ss.queue.At(qi).rq.deadline, ji, tc.jobs[ji].deadline)
				}
			}
		})
	}
}

// TestEstLoadTable: the load estimate follows the binding's placement
// state — free when resident, a warm reload from host memory, or a
// full cold start.
func TestEstLoadTable(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	p := New(smallCluster(1), specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 3})
	b := p.inv[0].bindTS(p.funcs[0])
	if b == nil {
		t.Fatal("bindTS failed")
	}
	mem := b.fn.memGB
	cases := []struct {
		name       string
		resident   bool
		everLoaded bool
		want       float64
	}{
		{"resident is free", true, true, 0},
		{"resident overrides load history", true, false, 0},
		{"evicted but warm reloads from host", false, true, keepalive.WarmLoadTime(mem)},
		{"never loaded pays a cold start", false, false, keepalive.ColdStartTime(mem)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b.resident = tc.resident
			b.everLoaded = tc.everLoaded
			if got := b.estLoad(); math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("estLoad = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestTSCapacityAdmission: route admits requests to the time-sharing
// binding only up to its capacity; overflow pends for scale-up.
func TestTSCapacityAdmission(t *testing.T) {
	p, b0, _, _ := tsFixture(t)
	fn := b0.fn
	p.eng.At(0.5, func() {
		n := b0.capacity + 2
		for i := 0; i < n; i++ {
			p.route(&request{
				id: i, fn: fn, arrival: 0.5, deadline: 0.5 + fn.spec.SLO,
			})
		}
		if b0.outstanding != b0.capacity {
			t.Errorf("binding outstanding = %d, want capacity %d",
				b0.outstanding, b0.capacity)
		}
		if fn.pending.Len() != 2 {
			t.Errorf("pending = %d, want the 2 overflow requests", fn.pending.Len())
		}
	})
	p.eng.RunUntil(0.6)
}

// TestEvictThenLoad: serving a non-resident binding evicts the LRU
// resident (Fig. 8 transition 4) and charges the reload to the new
// request's Load.
func TestEvictThenLoad(t *testing.T) {
	p, b0, b1, ss := tsFixture(t)
	rq0 := &request{fn: b0.fn, deadline: 1000}
	rq1 := &request{fn: b1.fn, deadline: 1000}
	p.eng.At(0, func() { ss.enqueue(p, b0, rq0) })
	// By t=30 the b0 request has finished and left b0 resident.
	p.eng.At(30, func() {
		if ss.resident != b0 || !b0.resident {
			t.Fatal("b0 not resident after serving")
		}
		ss.enqueue(p, b1, rq1)
	})
	p.eng.RunUntil(60)

	if p.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", p.Evictions())
	}
	if b0.resident || ss.resident != b1 {
		t.Error("b1 did not replace b0 as the resident")
	}
	if got := b0.state.State(); got != keepalive.Warm {
		t.Errorf("evicted binding state = %v, want warm", got)
	}
	if got := b1.state.State(); got != keepalive.TimeSharing {
		t.Errorf("serving binding state = %v, want time-sharing", got)
	}
	if want := keepalive.WarmLoadTime(b1.fn.memGB); math.Abs(rq1.rec.Load-want) > 1e-9 {
		t.Errorf("b1 request load = %v, want warm reload %v", rq1.rec.Load, want)
	}
	if want := keepalive.WarmLoadTime(b0.fn.memGB); math.Abs(rq0.rec.Load-want) > 1e-9 {
		t.Errorf("b0 request load = %v, want its own warm load %v", rq0.rec.Load, want)
	}
}

// TestTimeSharingBookkeeping: under faults, gray quarantine, hedging,
// overload control and, in one case, swapping, every time-sharing
// binding is recorded in exactly one place at every sample tick. Each
// binding is listed once, on a pool slice of its own invoker, which its
// shared field names and whose function points back at it; each slice
// lists its bindings in strictly ascending function-name order; and
// every pool slice is owned by its invoker's pool. The census is eight
// renamed copies of the small apps at a low rate, so most functions stay
// time-shared: with the swap tier off, bindings share slices and kicks
// evict; with it on, bindings come and go on their own slices.
func TestTimeSharingBookkeeping(t *testing.T) {
	var specs []FunctionSpec
	for k := 0; k < 8; k++ {
		for _, sp := range specsFor(t, dnn.Small) {
			sp.ID = len(specs)
			sp.Name = fmt.Sprintf("%s#%d", sp.Name, k)
			specs = append(specs, sp)
		}
	}
	tr := flatTrace(specs, 0.2, 300, 7)
	for _, swap := range []bool{false, true} {
		opts := richOptions(nil)
		opts.Swap.Enabled = swap
		var p *Platform
		shared := 0
		opts.OnSample = func(now float64, _ *cluster.Cluster) {
			listed := map[*tsBinding]int{}
			for _, inv := range p.inv {
				for _, ss := range inv.shared {
					if ss.slice.Owner != inv.sharedOwner() {
						t.Fatalf("swap %v, t=%v: pool slice %s owned by %q, want %q",
							swap, now, ss.slice.ID(), ss.slice.Owner, inv.sharedOwner())
					}
					if len(ss.bindings) > 1 {
						shared++
					}
					for i, b := range ss.bindings {
						listed[b]++
						name := b.fn.spec.Name
						if i > 0 && ss.bindings[i-1].fn.spec.Name >= name {
							t.Fatalf("swap %v, t=%v: slice %s lists %q after %q",
								swap, now, ss.slice.ID(), name, ss.bindings[i-1].fn.spec.Name)
						}
						if b.shared != ss {
							t.Fatalf("swap %v, t=%v: %s listed on %s but homed on %s",
								swap, now, name, ss.slice.ID(), b.shared.slice.ID())
						}
						if b.fn.ts != b {
							t.Fatalf("swap %v, t=%v: %s listed on %s is not its function's binding",
								swap, now, name, ss.slice.ID())
						}
					}
				}
			}
			for b, n := range listed {
				if n != 1 {
					t.Fatalf("swap %v, t=%v: %s listed %d times", swap, now, b.fn.spec.Name, n)
				}
			}
			for _, fn := range p.funcs {
				if fn.ts != nil && listed[fn.ts] != 1 {
					t.Fatalf("swap %v, t=%v: %s's binding is on no pool slice", swap, now, fn.spec.Name)
				}
			}
		}
		p = newRich(specs, opts)
		p.Run(tr, 60)
		c := p.tally
		if shared == 0 || c[EvPoolShrink] == 0 || p.FaultsInjected() == 0 {
			t.Errorf("swap %v: %d shared-slice samples, %d pool shrinks, %d faults: the run must exercise all three",
				swap, shared, c[EvPoolShrink], p.FaultsInjected())
		}
		if !swap && c[EvEvict] == 0 {
			t.Error("swap off: no kick evicted a resident")
		}
		if swap && (c[EvCold] == 0 || p.SwapIns() == 0) {
			t.Errorf("swap on: %d unbinds, %d swap-ins: the run must exercise both", c[EvCold], p.SwapIns())
		}
	}
}
