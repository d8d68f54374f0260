package scheduler

import (
	"slices"
	"sync"

	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
)

// FluidFaaS is the paper's policy: on-the-fly pipeline construction over
// the CV-ranked partition list (§5.2.2), hotness-aware eviction-based
// time sharing, and pipeline migration (§5.3).
type FluidFaaS struct {
	// DisableTimeSharing and DisableMigration support the ablation
	// benches; the full system leaves them false.
	DisableTimeSharing bool
	DisableMigration   bool
}

// Name implements Policy.
func (*FluidFaaS) Name() string { return "fluidfaas" }

// Pipelines implements Policy.
func (*FluidFaaS) Pipelines() bool { return true }

// TimeSharing implements Policy.
func (p *FluidFaaS) TimeSharing() bool { return !p.DisableTimeSharing }

// Migration implements Policy.
func (p *FluidFaaS) Migration() bool { return !p.DisableMigration }

// freeView tracks which of a node's free slices earlier placements in
// the same batch already consumed, plus the counting-multiset index the
// planner keys on — maintained incrementally so probing a
// node never rebuilds the free list.
type freeView struct {
	types     []mig.SliceType
	used      []bool
	counts    pipeline.Counts
	remaining int
}

// freeViews is one PlaceBatch call's views. Every view's used mask is a
// window of one shared backing array.
type freeViews struct {
	views []freeView
	used  []bool
}

// viewPool recycles freeViews across calls, so a placement round
// allocates no views or masks while the policies stay stateless and
// safe to share between goroutines.
var viewPool = sync.Pool{New: func() any { return new(freeViews) }}

// newFreeViews returns a view per node, taken from viewPool; hand it
// back with release once no view is in use. A node without Counts is
// tallied here.
func newFreeViews(nodes []NodeFree) *freeViews {
	fv := viewPool.Get().(*freeViews)
	total := 0
	for _, n := range nodes {
		total += len(n.Free)
	}
	fv.used = slices.Grow(fv.used[:0], total)[:total]
	clear(fv.used)
	fv.views = slices.Grow(fv.views[:0], len(nodes))[:len(nodes)]
	off := 0
	for i := range nodes {
		n, v := &nodes[i], &fv.views[i]
		v.types = n.Free
		v.used = fv.used[off : off+len(n.Free) : off+len(n.Free)]
		v.counts = n.Counts
		if v.counts == (pipeline.Counts{}) {
			v.counts = pipeline.CountsOf(n.Free)
		}
		v.remaining = len(n.Free)
		off += len(n.Free)
	}
	return fv
}

// release returns fv to viewPool, dropping its references to the
// callers' free lists.
func (fv *freeViews) release() {
	clear(fv.views)
	viewPool.Put(fv)
}

// availTypes returns just the unconsumed slice types; the planner calls
// it only on a cache miss.
func (v *freeView) availTypes() []mig.SliceType {
	types := make([]mig.SliceType, 0, v.remaining)
	for i, t := range v.types {
		if !v.used[i] {
			types = append(types, t)
		}
	}
	return types
}

// consume marks the placement's slice indices taken and updates the
// multiset index. Consuming an index twice within one batch would hand
// the same physical slice to two instances; that is a scheduler bug, so
// it panics rather than silently double-booking.
func (v *freeView) consume(origIdx []int) {
	for _, i := range origIdx {
		if v.used[i] {
			panic("scheduler: free-slice index double-booked within a batch")
		}
		v.used[i] = true
		v.counts[v.types[i]]--
		v.remaining--
	}
}

// PlaceBatch places each request in turn on the node where the
// CV-ranked construction finds the best feasible deployment. Because
// construction returns the first feasible partition in §5.2.2 walk
// order, plans from different nodes may come from different partition
// ranks; the cross-node choice therefore orders by partition rank first
// (earlier-ranked always wins, preserving the walk-order semantics),
// then by fewer GPCs, ties to the first node. Pipelines never span
// nodes: stages communicate through host shared memory (§5.2.1).
//
// Probing a node is a planner lookup keyed on the node's free-slice
// multiset; the partition walk only runs on a miss. A request without a
// Planner (or one made for another SLO) gets a fresh one for this call,
// so its answers are the same and only the cache lifetime shrinks.
func (p *FluidFaaS) PlaceBatch(reqs []Req, nodes []NodeFree) []Placement {
	fv := newFreeViews(nodes)
	defer fv.release()
	views := fv.views
	var out []Placement
	for ri, req := range reqs {
		planner := req.Planner
		if planner == nil || planner.SLO() != req.SLO {
			planner = pipeline.NewPlanner(req.DAG, req.Parts, req.SLO)
		}
		best := -1
		var bestRes *pipeline.PlanResult
		var bestGPCs int
		for ni := range views {
			v := &views[ni]
			if v.remaining == 0 {
				continue
			}
			res := planner.Result(v.counts, v.availTypes)
			if res.Err != nil {
				continue
			}
			g := res.Plan.GPCs()
			if best == -1 || res.Rank < bestRes.Rank ||
				(res.Rank == bestRes.Rank && g < bestGPCs) {
				best, bestRes, bestGPCs = ni, res, g
			}
		}
		if best == -1 {
			continue
		}
		// Replay the index binding against the winning node's view;
		// consume() guards double-booking.
		v := &views[best]
		idx := bestRes.BindIndices(v.types, v.used)
		v.consume(idx)
		out = append(out, Placement{
			Req: ri, Node: nodes[best].Node, Plan: bestRes.Plan, SliceIdx: idx,
		})
	}
	return out
}
