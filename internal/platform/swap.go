package platform

import (
	"fmt"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/obs/decisions"
)

// This file is the model-swapping memory tier (ROADMAP §3, after
// Torpor/FaaSwap): each node's host memory becomes a managed pool of
// per-model copies (cluster.MemPool) instead of a bare byte counter.
// With the tier enabled:
//
//   - A binding or exclusive launch reserves its model copy by name;
//     when the pool is full, the least-recently-used parked copy is
//     evicted to make room (its model's next load pays a full cold
//     start — "Cold" now means the pool truly evicted the model). A
//     copy in use is never evicted: with no parked copy left, the
//     reservation fails and the load goes without a host copy.
//   - When a binding unbinds (keep-alive ageing, pool reclaim), its
//     copy is parked rather than freed: a later rebind or exclusive
//     launch reclaims it and pays SwapInTime, not a remote refetch.
//
// Everything is gated on Options.Swap.Enabled: disabled, a binding
// reserves its copy when it binds and releases it when it unbinds, with
// no eviction, parking or reclaim, and the run is bit-for-bit identical
// to pre-tier behaviour (enforced by TestSwapDisabledIdentity).

// SwapOptions configure the model-swapping memory tier.
type SwapOptions struct {
	// Enabled turns the tier on. Off (the zero value), a warm host copy
	// lives exactly as long as its binding and nothing here applies.
	Enabled bool
}

// Swap-tier tuning.
const (
	// swapParkAfter is the swap-aware demotion window (s): a
	// time-sharing binding idle this long whose pool copy is
	// materialised unbinds early — long before the legacy keep-alive
	// window — parking the copy. The legacy path must hold bindings to
	// stay warm; the tier needs only the pool copy, so idle models stop
	// pinning shared slices they are not using. Their return costs one
	// swap-in, not a refetch.
	swapParkAfter float64 = 10
)

// swapOn reports whether the swap tier is active.
func (p *Platform) swapOn() bool { return p.opts.Swap.Enabled }

// swapChurnPromote scales the reload-churn promotion threshold: a
// binding whose decayed churn accumulator exceeds this many swap-ins'
// worth of reload time gets an exclusive instance (controller.scaleUp).
// With churnDecay 0.7 per control tick, two reloads a couple of seconds
// apart cross the bar; a single reload never does.
const (
	swapChurnPromote = 1.25
	churnDecay       = 0.7
)

// decayLoadChurn ages every binding's reload-churn accumulator; called
// once per control tick while the swap tier is on.
func (p *Platform) decayLoadChurn() {
	for _, inv := range p.inv {
		for _, ss := range inv.shared {
			for _, b := range ss.bindings {
				b.loadChurn *= churnDecay
			}
		}
	}
}

// SwapIns returns how many loads were served from a parked host-pool
// copy instead of a remote refetch.
func (p *Platform) SwapIns() int { return p.tally[EvSwapIn] }

// SwapOuts returns how many host-pool copies were evicted under memory
// pressure.
func (p *Platform) SwapOuts() int { return p.tally[EvSwapOut] }

// ensureHostCopy reserves pool space for fn's model on node, evicting
// the least-recently-used parked copies as needed. It returns the
// reserved size (0 when the pool could not fit the copy even after
// evictions) and whether a materialised copy was already resident —
// the caller then knows the next load is a swap-in, not a remote fetch.
// A bare reservation (fetch never completed) is reclaimed but reported
// as no copy: warm starts need data, not just space.
func (p *Platform) ensureHostCopy(node *cluster.Node, fn *Function) (gb float64, hadCopy bool) {
	pool := node.Pool()
	name := fn.spec.Name
	if pool.Has(name) {
		loaded := pool.LoadedCopy(name)
		if loaded && pool.Parked(name) {
			p.logEvent(EvSwapIn, name, fmt.Sprintf("reclaimed parked copy on node%d", node.ID), transition{})
		}
		pool.Reclaim(name)
		return fn.memGB, loaded
	}
	for !pool.ReserveModel(name, fn.memGB) {
		victim, vgb, ok := pool.EvictParked()
		if !ok {
			return 0, false
		}
		p.dropHostCopy(node, victim, vgb)
	}
	return fn.memGB, false
}

// dropHostCopy records the pool eviction of model key's parked copy on
// node. A parked copy can sit beside a binding that holds no copy of
// its own; that binding loses its warm backing, so its next load pays
// a full cold start.
func (p *Platform) dropHostCopy(node *cluster.Node, key string, gb float64) {
	if fn := p.fnByName[key]; fn != nil {
		if b := fn.ts; b != nil && b.shared.inv.node == node {
			b.hostMemGB = 0
			b.everLoaded = false
		}
	}
	p.logEvent(EvSwapOut, key, fmt.Sprintf("pool eviction on node%d (%.1f GB)", node.ID, gb), transition{
		decision: func() decisions.Record {
			return decisions.Record{
				Kind: decisions.KindSwapEvict, Func: key,
				Subject: fmt.Sprintf("node%d", node.ID),
				Rule:    "LRU host-pool eviction under memory pressure",
				Outcome: "host copy dropped; next load is a cold start",
				Inputs: []decisions.KV{
					kvF("gb", gb),
					kvF("occupancy", node.Pool().Occupancy()),
				},
			}
		},
	})
}

// parkIfUnused parks fn's host copy on node when nothing there still
// uses it: no live exclusive instance and no binding holding the copy.
// Called when an exclusive instance releases — its model stays parked
// in the pool for a cheap swap-in until pressure evicts it.
func (p *Platform) parkIfUnused(fn *Function, node *cluster.Node) {
	for _, other := range fn.instances {
		if other.node == node && !other.failed {
			return
		}
	}
	if b := fn.ts; b != nil && b.shared.inv.node == node && b.hostMemGB > 0 {
		return
	}
	node.Pool().Park(fn.spec.Name)
}

// poolOccupancy is the mean host-pool occupancy across nodes, sampled
// into HostPoolOcc.
func (p *Platform) poolOccupancy() float64 {
	if len(p.cl.Nodes) == 0 {
		return 0
	}
	sum := 0.0
	for _, n := range p.cl.Nodes {
		sum += n.Pool().Occupancy()
	}
	return sum / float64(len(p.cl.Nodes))
}
