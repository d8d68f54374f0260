package platform

import (
	"reflect"
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/faults"
	"fluidfaas/internal/keepalive"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/scheduler"
)

// TestWarmReloadNeedsReservation: a binding whose host-memory
// reservation failed must plan a full cold start, never a phantom warm
// reload backed by memory it does not hold.
func TestWarmReloadNeedsReservation(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	cl := cluster.New(cluster.Spec{
		Nodes: 1, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 1), CPUMemGB: 0.01,
	})
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 1})
	inv := p.inv[0]
	fn := p.funcs[0]
	b := inv.bindTS(fn)
	if b == nil {
		t.Fatal("bindTS failed")
	}
	if b.hostMemGB != 0 {
		t.Fatalf("hostMemGB = %v with a full pool, want 0", b.hostMemGB)
	}
	b.everLoaded = true // the first (cold) load completed
	if got, want := b.estLoad(), keepalive.ColdStartTime(fn.memGB); got != want {
		t.Errorf("estLoad = %v, want cold %v: warm without a reservation", got, want)
	}
	// The copyless unbind must not release memory it never reserved.
	inv.unbind(b)
	if got := cl.Nodes[0].Pool().UsedGB(); got != 0 {
		t.Errorf("pool UsedGB = %v after unbind, want 0", got)
	}

	// Control: with room, the reservation sticks and the reload is warm.
	cl2 := smallCluster(1)
	p2 := New(cl2, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 1})
	b2 := p2.inv[0].bindTS(p2.funcs[0])
	if b2.hostMemGB != p2.funcs[0].memGB {
		t.Fatalf("hostMemGB = %v, want %v", b2.hostMemGB, p2.funcs[0].memGB)
	}
	b2.everLoaded = true
	if got, want := b2.estLoad(), keepalive.WarmLoadTime(p2.funcs[0].memGB); got != want {
		t.Errorf("estLoad = %v, want warm %v", got, want)
	}
}

// TestNodeCrashZeroesSurvivingBindings: a node crash drops the host
// pool wholesale, so any binding that outlives the per-slice teardown
// (e.g. its shared slice already failed) must forget its copy — its
// next load would otherwise be a phantom warm start — and its later
// unbind must leave the emptied pool at zero.
func TestNodeCrashZeroesSurvivingBindings(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	cl := smallCluster(1)
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 1})
	inv := p.inv[0]
	fn := p.funcs[0]
	b := inv.bindTS(fn)
	if b == nil || b.hostMemGB == 0 {
		t.Fatal("binding has no warm reservation")
	}
	// The binding's slice is already marked failed, so the crash's
	// slice sweep skips it and the binding survives with hostMemGB set.
	b.shared.failed = true
	p.injectFault(faults.Event{Kind: faults.NodeCrash, Node: 0, GPU: -1, Slice: -1})
	if b.hostMemGB != 0 {
		t.Fatal("binding kept its reservation past the crash")
	}
	if b.everLoaded {
		t.Error("binding still believes its copy survived the crash")
	}
	if got := cl.Nodes[0].Pool().UsedGB(); got != 0 {
		t.Fatalf("pool UsedGB = %v after crash, want 0", got)
	}
	if fn.ts != nil {
		inv.unbind(fn.ts)
	}
	if got := cl.Nodes[0].Pool().UsedGB(); got != 0 {
		t.Errorf("pool UsedGB = %v after unbind, want 0", got)
	}
}

// TestEnsureHostCopyPhantomWarmGuard: only a materialised pool copy may
// report hadCopy — a bare reservation whose fetch never completed is
// space, not data.
func TestEnsureHostCopyPhantomWarmGuard(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	cl := smallCluster(1)
	p := New(cl, specs, Options{
		Policy: &scheduler.FluidFaaS{}, Seed: 1, Swap: SwapOptions{Enabled: true},
	})
	node := cl.Nodes[0]
	fn := p.funcs[0]
	name := fn.spec.Name

	gb, had := p.ensureHostCopy(node, fn)
	if gb != fn.memGB || had {
		t.Fatalf("first reserve = (%v, %v), want (%v, false)", gb, had, fn.memGB)
	}
	// Parked before the fetch landed: reclaiming the bare reservation
	// must not look like a warm copy, and is not a swap-in.
	node.Pool().Park(name)
	if _, had = p.ensureHostCopy(node, fn); had {
		t.Error("bare reservation reported as a copy")
	}
	if p.SwapIns() != 0 {
		t.Errorf("swapIns = %d reclaiming an unmaterialised reservation", p.SwapIns())
	}
	// Once materialised, the parked copy is a real swap-in.
	node.Pool().MarkLoaded(name)
	node.Pool().Park(name)
	if _, had = p.ensureHostCopy(node, fn); !had {
		t.Error("materialised parked copy not reported")
	}
	if p.SwapIns() != 1 {
		t.Errorf("swapIns = %d, want 1", p.SwapIns())
	}
}

// TestEnsureHostCopyEvictsUnderPressure: a pool sized for one model
// evicts the parked LRU copy to admit the next, and the victim's next
// load is cold.
func TestEnsureHostCopyEvictsUnderPressure(t *testing.T) {
	specs := specsFor(t, dnn.Medium)[:2]
	// Size the pool off a throwaway platform: one medium copy fits,
	// two do not.
	probe := New(smallCluster(1), specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 1})
	capGB := probe.funcs[0].memGB + 1
	if probe.funcs[1].memGB+1 > capGB {
		capGB = probe.funcs[1].memGB + 1
	}
	if capGB >= probe.funcs[0].memGB+probe.funcs[1].memGB {
		t.Fatalf("pool %v would fit both models", capGB)
	}
	cl := cluster.New(cluster.Spec{
		Nodes: 1, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 1), CPUMemGB: capGB,
	})
	p := New(cl, specs, Options{
		Policy: &scheduler.FluidFaaS{}, Seed: 1, Swap: SwapOptions{Enabled: true},
	})
	node := cl.Nodes[0]
	fn0, fn1 := p.funcs[0], p.funcs[1]

	if _, _ = p.ensureHostCopy(node, fn0); !node.Pool().Has(fn0.spec.Name) {
		t.Fatal("fn0 reservation missing")
	}
	node.Pool().MarkLoaded(fn0.spec.Name)
	node.Pool().Park(fn0.spec.Name)
	gb, had := p.ensureHostCopy(node, fn1)
	if gb != fn1.memGB || had {
		t.Fatalf("fn1 reserve = (%v, %v), want (%v, false)", gb, had, fn1.memGB)
	}
	if node.Pool().Has(fn0.spec.Name) {
		t.Error("LRU victim survived the eviction")
	}
	if p.SwapOuts() != 1 {
		t.Errorf("swapOuts = %d, want 1", p.SwapOuts())
	}
	// With fn1's copy unevictable (not parked, no binding — but guard
	// via a live binding) the pool refuses fn0.
	b1 := p.inv[0].bindTS(fn1)
	if b1 == nil {
		t.Fatal("bindTS failed")
	}
	b1.outstanding = 1
	if gb, _ := p.ensureHostCopy(node, fn0); gb != 0 {
		t.Errorf("reserve = %v with nothing evictable, want 0", gb)
	}
}

// TestSwapParkOnUnbind: with the tier on, unbinding parks the
// materialised copy and a later rebind reclaims it as a swap-in — the
// binding comes back warm, not cold.
func TestSwapParkOnUnbind(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	cl := smallCluster(1)
	p := New(cl, specs, Options{
		Policy: &scheduler.FluidFaaS{}, Seed: 1, Swap: SwapOptions{Enabled: true},
	})
	inv := p.inv[0]
	fn := p.funcs[0]
	name := fn.spec.Name
	b := inv.bindTS(fn)
	if b == nil || b.hostMemGB == 0 {
		t.Fatal("keyed reservation failed")
	}
	cl.Nodes[0].Pool().MarkLoaded(name)
	inv.unbind(b)
	if !cl.Nodes[0].Pool().Parked(name) {
		t.Fatal("unbind did not park the copy")
	}
	b2 := inv.bindTS(fn)
	if b2 == nil || !b2.everLoaded {
		t.Fatal("rebind did not reclaim the parked copy warm")
	}
	if p.SwapIns() != 1 {
		t.Errorf("swapIns = %d, want 1", p.SwapIns())
	}
	if got, want := b2.estLoad(), keepalive.WarmLoadTime(fn.memGB); got != want {
		t.Errorf("estLoad after reclaim = %v, want warm %v", got, want)
	}
}

// TestSwapDisabledIdentity: with Swap.Enabled false, the platform must
// be bit-for-bit identical to one that never mentioned the tier.
func TestSwapDisabledIdentity(t *testing.T) {
	run := func(sw SwapOptions) (*Platform, []Event) {
		specs := specsFor(t, dnn.Medium)
		cl := cluster.New(cluster.DefaultSpec())
		p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 77, Swap: sw})
		var events []Event
		p.Subscribe(collect(&events))
		p.Run(flatTrace(specs, 10, 120, 77), 60)
		return p, events
	}
	a, evA := run(SwapOptions{})
	b, evB := run(SwapOptions{Enabled: false})
	if !reflect.DeepEqual(a.Collector().Records(), b.Collector().Records()) {
		t.Error("request records diverged with the tier disabled")
	}
	if a.Engine().Executed() != b.Engine().Executed() {
		t.Errorf("event counts diverged: %d vs %d",
			a.Engine().Executed(), b.Engine().Executed())
	}
	if a.Launched() != b.Launched() || a.Evictions() != b.Evictions() {
		t.Error("launch/eviction counters diverged")
	}
	if !reflect.DeepEqual(evA, evB) {
		t.Error("event streams diverged")
	}
	if !reflect.DeepEqual(a.UtilGPCs, b.UtilGPCs) {
		t.Error("utilisation timelines diverged")
	}
	if a.SwapIns() != 0 || a.SwapOuts() != 0 {
		t.Error("disabled tier recorded swap activity")
	}
}

// TestSwapEnabledDeterminism: the tier itself is deterministic — two
// same-seed runs with it on are identical.
func TestSwapEnabledDeterminism(t *testing.T) {
	run := func() *Platform {
		specs := specsFor(t, dnn.Medium)
		cl := cluster.New(cluster.DefaultSpec())
		p := New(cl, specs, Options{
			Policy: &scheduler.FluidFaaS{}, Seed: 77,
			Swap: SwapOptions{Enabled: true},
		})
		p.Run(flatTrace(specs, 10, 120, 77), 60)
		return p
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Collector().Records(), b.Collector().Records()) {
		t.Error("swap-on records diverged across same-seed runs")
	}
	if a.Engine().Executed() != b.Engine().Executed() {
		t.Error("swap-on event counts diverged")
	}
	if a.SwapIns() != b.SwapIns() || a.SwapOuts() != b.SwapOuts() {
		t.Error("swap counters diverged")
	}
}
