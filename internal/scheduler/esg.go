package scheduler

import (
	"container/heap"
	"math"

	"fluidfaas/internal/pipeline"
)

// ESG is the state-of-the-art baseline (HPDC'24): functions are
// monolithic units assigned to specific MIG slices by the controller,
// which runs an A*-search over the assignment space with dual-blade
// pruning and picks the most resource-efficient option that meets the
// SLO (§3, §6). Exclusive keep-alive, no pipelines, no time sharing.
type ESG struct {
	// DisableDominance and DisableBound switch off one pruning blade
	// each, for the search-effort ablation; the search stays optimal
	// either way, just slower.
	DisableDominance bool
	DisableBound     bool

	// Explored counts A* states popped in the most recent PlaceBatch
	// call (diagnostics for the pruning ablation).
	Explored int
}

// Name implements Policy.
func (*ESG) Name() string { return "esg" }

// Pipelines implements Policy.
func (*ESG) Pipelines() bool { return false }

// TimeSharing implements Policy.
func (*ESG) TimeSharing() bool { return false }

// Migration implements Policy.
func (*ESG) Migration() bool { return false }

// deferPenalty is the cost of leaving a request unplaced; it exceeds any
// single placement's GPC-seconds so A* places everything it can.
const deferPenalty = 1e3

// option is one feasible (slice, cost) choice for a request.
type option struct {
	slice int // global slice index; -1 = defer (leave unplaced)
	cost  float64
}

// searchState is a node of the A* search: the first `level` requests
// have been decided.
type searchState struct {
	level  int
	g      float64 // accumulated cost
	f      float64 // g + admissible remainder estimate
	used   uint64  // bitmask over global slices (the batch view is small)
	parent *searchState
	opt    int // option index taken at level-1 (the edge from parent)
}

// seenState is a state the dominance blade has expanded at some level.
type seenState struct {
	used uint64
	g    float64
}

type stateHeap []*searchState

func (h stateHeap) Len() int           { return len(h) }
func (h stateHeap) Less(i, j int) bool { return h[i].f < h[j].f }
func (h stateHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *stateHeap) Push(x any)        { *h = append(*h, x.(*searchState)) }
func (h *stateHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	*h = old[:n-1]
	return s
}

// PlaceBatch runs the A*-search with dual-blade pruning over the
// monolithic-assignment space. The first blade prunes states whose
// lower bound exceeds the best complete solution found so far; the
// second prunes states dominated at the same search level by a state
// that used a subset of the slices at no greater cost.
func (e *ESG) PlaceBatch(reqs []Req, nodes []NodeFree) []Placement {
	// Flatten slices to global indices (capped at 64 for the bitmask;
	// batches and free lists in one scheduling round are far smaller).
	type gslice struct {
		node, idx int
	}
	var slices []gslice
	for ni, n := range nodes {
		for si := range n.Free {
			if len(slices) == 64 {
				break
			}
			slices = append(slices, gslice{ni, si})
		}
	}

	// Per-request feasible options in slice order, plus the defer option,
	// read from each request's monolithic table. hMin is the admissible
	// per-request remainder bound.
	opts := make([][]option, len(reqs))
	tables := make([]*pipeline.MonoTable, len(reqs))
	hMin := make([]float64, len(reqs))
	for ri, req := range reqs {
		mono := monoTable(req)
		tables[ri] = mono
		minCost := deferPenalty
		for gi, gs := range slices {
			m := &mono[nodes[gs.node].Free[gs.idx]]
			if !m.Fits(req.SLO) {
				continue
			}
			opts[ri] = append(opts[ri], option{slice: gi, cost: m.Cost})
			if m.Cost < minCost {
				minCost = m.Cost
			}
		}
		opts[ri] = append(opts[ri], option{slice: -1, cost: deferPenalty})
		hMin[ri] = minCost
	}
	hSuffix := make([]float64, len(reqs)+1)
	for i := len(reqs) - 1; i >= 0; i-- {
		hSuffix[i] = hSuffix[i+1] + hMin[i]
	}

	// A* with the two pruning blades.
	best := math.Inf(1)
	var bestLeaf *searchState
	frontier := &stateHeap{{level: 0, f: hSuffix[0]}}
	heap.Init(frontier)
	seen := make([][]seenState, len(reqs)+1)
	e.Explored = 0
	for frontier.Len() > 0 {
		s := heap.Pop(frontier).(*searchState)
		e.Explored++
		if !e.DisableBound && s.f >= best { // blade 1: bound pruning
			continue
		}
		if s.level == len(reqs) {
			if s.g < best {
				best = s.g
				bestLeaf = s
			}
			continue
		}
		// Blade 2: dominance pruning at this level.
		if !e.DisableDominance {
			dominated := false
			for _, prev := range seen[s.level] {
				if prev.used&^s.used == 0 && prev.g <= s.g {
					dominated = true
					break
				}
			}
			if dominated {
				continue
			}
			seen[s.level] = append(seen[s.level], seenState{s.used, s.g})
		}

		for oi, opt := range opts[s.level] {
			if opt.slice >= 0 && s.used&(1<<uint(opt.slice)) != 0 {
				continue
			}
			used := s.used
			if opt.slice >= 0 {
				used |= 1 << uint(opt.slice)
			}
			g := s.g + opt.cost
			f := g + hSuffix[s.level+1]
			if !e.DisableBound && f >= best {
				continue
			}
			heap.Push(frontier, &searchState{
				level: s.level + 1, g: g, f: f, used: used, parent: s, opt: oi,
			})
		}
	}

	// Rebuild the winning choice vector from the leaf's parent chain.
	choice := make([]int, len(reqs))
	for s := bestLeaf; s.parent != nil; s = s.parent {
		choice[s.level-1] = s.opt
	}
	var out []Placement
	for ri, oi := range choice {
		opt := opts[ri][oi]
		if opt.slice < 0 {
			continue
		}
		gs := slices[opt.slice]
		t := nodes[gs.node].Free[gs.idx]
		out = append(out, Placement{
			Req: ri, Node: nodes[gs.node].Node, Plan: tables[ri][t].Plan,
			SliceIdx: []int{gs.idx},
		})
	}
	return out
}
