package scheduler

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fluidfaas/internal/dnn"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
)

// refView is the per-call free view the reference placements walk: the
// unpooled freeView as it stood before views came from a pool, so the
// oracles share no code with the views under test.
type refView struct {
	types     []mig.SliceType
	used      []bool
	remaining int
}

func newRefViews(nodes []NodeFree) []refView {
	out := make([]refView, len(nodes))
	for i, n := range nodes {
		out[i] = refView{types: n.Free, used: make([]bool, len(n.Free)), remaining: len(n.Free)}
	}
	return out
}

func (v *refView) consume(idx []int) {
	for _, i := range idx {
		if v.used[i] {
			panic("reference: free-slice index double-booked within a batch")
		}
		v.used[i] = true
		v.remaining--
	}
}

// avail returns the view's unconsumed slice types and their original
// indices — the materialised free list the reference placements walk.
func (v *refView) avail() ([]mig.SliceType, []int) {
	types := make([]mig.SliceType, 0, v.remaining)
	idx := make([]int, 0, v.remaining)
	for i, t := range v.types {
		if !v.used[i] {
			types = append(types, t)
			idx = append(idx, i)
		}
	}
	return types, idx
}

// refState is the reference search's A* node: it carries its whole
// choice vector instead of a parent pointer.
type refState struct {
	level  int
	g      float64
	f      float64
	used   uint64
	choice []int
}

type refHeap []*refState

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].f < h[j].f }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refState)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	*h = old[:n-1]
	return s
}

// esgReference is ESG.PlaceBatch as it stood before the monolithic
// table: every request × free slice builds its plan with
// pipeline.Monolithic, the dominance blade keys a map by level, and each
// push copies the choice vector. It returns the placements and the
// number of A* states popped.
func esgReference(e ESG, reqs []Req, nodes []NodeFree) ([]Placement, int) {
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

	opts := make([][]option, len(reqs))
	hMin := make([]float64, len(reqs))
	for ri, req := range reqs {
		minCost := deferPenalty
		for gi, gs := range slices {
			c, fits := directMono(req.DAG, nodes[gs.node].Free[gs.idx], req.SLO)
			if !fits {
				continue
			}
			opts[ri] = append(opts[ri], option{slice: gi, cost: c})
			if c < minCost {
				minCost = c
			}
		}
		opts[ri] = append(opts[ri], option{slice: -1, cost: deferPenalty})
		hMin[ri] = minCost
	}
	hSuffix := make([]float64, len(reqs)+1)
	for i := len(reqs) - 1; i >= 0; i-- {
		hSuffix[i] = hSuffix[i+1] + hMin[i]
	}

	best := math.Inf(1)
	var bestChoice []int
	frontier := &refHeap{{level: 0, f: hSuffix[0]}}
	heap.Init(frontier)
	seen := make(map[int][]seenState)
	explored := 0
	for frontier.Len() > 0 {
		s := heap.Pop(frontier).(*refState)
		explored++
		if !e.DisableBound && s.f >= best {
			continue
		}
		if s.level == len(reqs) {
			if s.g < best {
				best = s.g
				bestChoice = s.choice
			}
			continue
		}
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
			choice := make([]int, len(s.choice)+1)
			copy(choice, s.choice)
			choice[len(s.choice)] = oi
			heap.Push(frontier, &refState{
				level: s.level + 1, g: g, f: f, used: used, choice: choice,
			})
		}
	}

	var out []Placement
	for ri, oi := range bestChoice {
		opt := opts[ri][oi]
		if opt.slice < 0 {
			continue
		}
		gs := slices[opt.slice]
		plan, err := pipeline.Monolithic(reqs[ri].DAG, nodes[gs.node].Free[gs.idx])
		if err != nil {
			continue
		}
		out = append(out, Placement{
			Req: ri, Node: nodes[gs.node].Node, Plan: plan,
			SliceIdx: []int{gs.idx},
		})
	}
	return out, explored
}

// inflessReference is INFlessMIG.PlaceBatch as it stood before the
// monolithic table: it materialises each node's free list per request
// and builds plans with pipeline.Monolithic.
func inflessReference(reqs []Req, nodes []NodeFree) []Placement {
	views := newRefViews(nodes)
	var out []Placement
	for ri, req := range reqs {
		for ni := range views {
			types, orig := views[ni].avail()
			best := -1
			for ai, t := range types {
				if _, fits := directMono(req.DAG, t, req.SLO); fits {
					best = ai
					break
				}
			}
			if best == -1 {
				continue
			}
			plan, err := pipeline.Monolithic(req.DAG, types[best])
			if err != nil {
				continue
			}
			out = append(out, Placement{
				Req: ri, Node: nodes[ni].Node, Plan: plan,
				SliceIdx: []int{orig[best]},
			})
			views[ni].consume([]int{orig[best]})
			break
		}
	}
	return out
}

// hybridFree is every slice of one idle hybrid-partitioned node.
func hybridFree() []mig.SliceType {
	var free []mig.SliceType
	for _, cfg := range mig.HybridNode() {
		free = append(free, cfg...)
	}
	return free
}

// baselineNodes draws one of the four view shapes the control loop hands
// the baselines: empty nodes, saturated nodes with only 1g slices free,
// random fragments, and a view wider than ESG's 64-slice bitmask.
func baselineNodes(rng *rand.Rand, shape int) []NodeFree {
	var nodes []NodeFree
	switch shape {
	case 0: // empty
		for i := 1 + rng.Intn(2); i > 0; i-- {
			nodes = append(nodes, NodeFree{Free: hybridFree()})
		}
	case 1: // saturated: only 1g slices free
		for i := 1 + rng.Intn(3); i > 0; i-- {
			var free []mig.SliceType
			for j := rng.Intn(8); j > 0; j-- {
				free = append(free, mig.Slice1g)
			}
			nodes = append(nodes, NodeFree{Free: free})
		}
	case 2: // fragmented
		for i := 1 + rng.Intn(5); i > 0; i-- {
			var free []mig.SliceType
			for j := rng.Intn(9); j > 0; j-- {
				free = append(free, mig.SliceTypes[rng.Intn(mig.NumSliceTypes)])
			}
			nodes = append(nodes, NodeFree{Free: free})
		}
	default: // more than 64 free slices
		for i := 3 + rng.Intn(2); i > 0; i-- {
			nodes = append(nodes, NodeFree{Free: hybridFree()})
		}
	}
	for i := range nodes {
		nodes[i].Node = i
	}
	return nodes
}

// sloPool is every app × variant request with its planner, each also
// with a tight SLO, which rules out its slower slices, and with none
// (SLO 0), sharing one planner.
func sloPool(t *testing.T) []Req {
	var pool []Req
	for _, id := range dnn.AppIDs {
		for _, v := range dnn.Variants {
			if dnn.Get(id).Excluded(v) {
				continue
			}
			req := withPlanner(reqFor(t, id, v))
			for _, scale := range []float64{1, 0.6, 0} {
				r := req
				r.SLO *= scale
				pool = append(pool, r)
			}
		}
	}
	return pool
}

// unprunedTree bounds the A* tree without pruning: the product over
// requests of (feasible free slices + defer).
func unprunedTree(reqs []Req, nodes []NodeFree) float64 {
	size := 1.0
	for _, req := range reqs {
		n := 1
		for _, nf := range nodes {
			for _, t := range nf.Free {
				if _, fits := directMono(req.DAG, t, req.SLO); fits {
					n++
				}
			}
		}
		size *= float64(n)
	}
	return size
}

// TestBaselinesMatchReference: over seeded random batches of apps ×
// variants on every view shape, with requests that share persistent
// planners mixed with nil-planner requests, the table-backed ESG and
// INFless place exactly as their pre-table references — same nodes,
// slice indices and plans — and ESG pops the same number of A* states
// under every blade setting where the unpruned search is affordable.
func TestBaselinesMatchReference(t *testing.T) {
	pool := sloPool(t)
	blades := []ESG{
		{},
		{DisableBound: true},
		{DisableDominance: true},
		{DisableBound: true, DisableDominance: true},
	}
	rng := rand.New(rand.NewSource(42))
	placed, deferred, ablated := [4]int{}, [4]int{}, 0
	for trial := 0; trial < 300; trial++ {
		// A* over dozens of interchangeable free slices grows
		// exponentially with the batch, so the wide shapes (empty, >64)
		// draw at most 4 requests; the narrow ones up to 8.
		shape := trial % 4
		maxReqs := 8
		if shape == 0 || shape == 3 {
			maxReqs = 4
		}
		reqs := make([]Req, 1+rng.Intn(maxReqs))
		for i := range reqs {
			reqs[i] = pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 {
				reqs[i].Planner = nil
			}
		}
		nodes := baselineNodes(rng, shape)

		want := inflessReference(reqs, nodes)
		if got := (&INFlessMIG{}).PlaceBatch(reqs, nodes); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: INFless diverged from the reference:\ngot:  %+v\nwant: %+v", trial, got, want)
		}

		affordable := unprunedTree(reqs, nodes) <= 2e4
		for bi, blade := range blades {
			if bi > 0 && !affordable {
				break
			}
			if bi == 1 {
				ablated++
			}
			want, wantExplored := esgReference(blade, reqs, nodes)
			esg := blade
			if got := esg.PlaceBatch(reqs, nodes); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d blades %+v: ESG diverged from the reference:\ngot:  %+v\nwant: %+v",
					trial, blade, got, want)
			}
			if esg.Explored != wantExplored {
				t.Fatalf("trial %d blades %+v: explored %d states, reference %d",
					trial, blade, esg.Explored, wantExplored)
			}
			if bi == 0 {
				placed[shape] += len(want)
				deferred[shape] += len(reqs) - len(want)
			}
		}
	}
	// Every shape must place something; the saturated and fragmented
	// ones must also defer (the wide ones have room for ≤4 requests).
	for shape := range placed {
		if placed[shape] == 0 {
			t.Errorf("shape %d never placed anything; the draw is vacuous", shape)
		}
		if (shape == 1 || shape == 2) && deferred[shape] == 0 {
			t.Errorf("shape %d never deferred a request; contention is never exercised", shape)
		}
	}
	if ablated < 30 {
		t.Errorf("only %d trials checked the pruning ablations", ablated)
	}
}
