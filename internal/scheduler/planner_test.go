package scheduler

import (
	"math/rand"
	"reflect"
	"testing"

	"fluidfaas/internal/dag"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
)

// withPlanner attaches a fresh memoizing planner to a copy of req.
func withPlanner(req Req) Req {
	req.Planner = pipeline.NewPlanner(req.DAG, req.Parts)
	return req
}

// placeBatchReference is FluidFaaS.PlaceBatch without the planner: each
// probe runs the §5.2.2 walk (pipeline.ConstructRanked) over the node's
// unconsumed slices and maps the chosen indices back to the node's free
// list. It is the oracle the planner-backed placement must reproduce.
func placeBatchReference(reqs []Req, nodes []NodeFree) []Placement {
	views := newFreeViews(nodes)
	var out []Placement
	for ri, req := range reqs {
		best, bestRank, bestGPCs := -1, 0, 0
		var bestPlan pipeline.Plan
		var bestIdx []int
		for ni := range views {
			v := &views[ni]
			if v.remaining == 0 {
				continue
			}
			types, orig := v.avail()
			plan, idx, rank, err := pipeline.ConstructRanked(req.DAG, req.Parts, types, req.SLO)
			if err != nil {
				continue
			}
			g := plan.GPCs()
			if best == -1 || rank < bestRank || (rank == bestRank && g < bestGPCs) {
				mapped := make([]int, len(idx))
				for i, ai := range idx {
					mapped[i] = orig[ai]
				}
				best, bestRank, bestGPCs, bestPlan, bestIdx = ni, rank, g, plan, mapped
			}
		}
		if best == -1 {
			continue
		}
		views[best].consume(bestIdx)
		out = append(out, Placement{Req: ri, Node: nodes[best].Node, Plan: bestPlan, SliceIdx: bestIdx})
	}
	return out
}

// randomNodes draws 1-5 node free views: saturated (nothing free), empty
// (every slice of a hybrid node free) or a random fragment of up to 8
// slices.
func randomNodes(rng *rand.Rand) []NodeFree {
	var idle []mig.SliceType
	for _, cfg := range mig.HybridNode() {
		idle = append(idle, cfg...)
	}
	nodes := make([]NodeFree, 1+rng.Intn(5))
	for i := range nodes {
		nodes[i].Node = i
		switch rng.Intn(4) {
		case 0: // saturated
		case 1: // empty
			nodes[i].Free = append([]mig.SliceType(nil), idle...)
		default:
			for j := rng.Intn(9); j > 0; j-- {
				nodes[i].Free = append(nodes[i].Free, mig.SliceTypes[rng.Intn(mig.NumSliceTypes)])
			}
		}
	}
	return nodes
}

// TestPlaceBatchPlannerEquivalence: over seeded random batches of dnn
// apps x variants and random node free views, planners shared across
// batches, nil planners and the ConstructRanked oracle must yield the
// same placements — same nodes, same plans, same slice indices — and
// the shared planners must actually serve repeated multisets from cache.
func TestPlaceBatchPlannerEquivalence(t *testing.T) {
	var pool []Req
	for _, id := range dnn.AppIDs {
		for _, v := range dnn.Variants {
			if !dnn.Get(id).Excluded(v) {
				pool = append(pool, withPlanner(reqFor(t, id, v)))
			}
		}
	}
	pol := &FluidFaaS{}
	rng := rand.New(rand.NewSource(42))
	placed, pipelined := 0, 0
	for trial := 0; trial < 300; trial++ {
		shared := make([]Req, 1+rng.Intn(8))
		for i := range shared {
			shared[i] = pool[rng.Intn(len(pool))]
		}
		bare := make([]Req, len(shared))
		for i, r := range shared {
			r.Planner = nil
			bare[i] = r
		}
		nodes := randomNodes(rng)

		want := placeBatchReference(bare, nodes)
		for _, pl := range want {
			placed++
			if pl.Plan.Pipelined() {
				pipelined++
			}
		}
		if got := pol.PlaceBatch(shared, nodes); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: shared planners diverged from the oracle:\ngot:  %+v\nwant: %+v", trial, got, want)
		}
		if got := pol.PlaceBatch(bare, nodes); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: nil planners diverged from the oracle:\ngot:  %+v\nwant: %+v", trial, got, want)
		}
	}

	if placed == 0 || pipelined == 0 {
		t.Fatalf("%d placements, %d pipelined: the draws never exercise construction", placed, pipelined)
	}
	hits := uint64(0)
	for _, r := range pool {
		hits += r.Planner.Stats().Hits
	}
	if hits == 0 {
		t.Error("no cache hits across 300 batches; memoization is dead code")
	}
}

// TestPlaceBatchRankRespected (satellite bugfix): the cross-node choice
// must order by partition rank before GPC footprint. A monolithic plan
// (rank 0) on a fat node beats an earlier-scanned skinny node that can
// only host the rank-1 split, even though the split uses fewer GPCs —
// §5.2.2's walk order is first feasible partition wins.
func TestPlaceBatchRankRespected(t *testing.T) {
	// Two equal stages of 8 GB: monolithic needs 16 GB (a 2g+ slice);
	// the balanced split runs per-stage on 1g slices. Both partitions
	// have CV = 0, so the enumerator ranks monolithic first (fewer
	// stages on equal CV).
	d := dag.New()
	exec := map[mig.SliceType]float64{}
	for _, st := range mig.SliceTypes {
		exec[st] = 0.1
	}
	a := d.AddNode(dag.Node{Name: "a", MemGB: 8, OutMB: 4, Exec: exec})
	b := d.AddNode(dag.Node{Name: "b", MemGB: 8, OutMB: 4, Exec: exec})
	d.AddEdge(a, b)
	parts, err := d.EnumeratePartitions(mig.Slice7g)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts[0].Stages) != 1 {
		t.Fatalf("precondition: monolithic partition should rank first, got %+v", parts[0])
	}
	req := Req{DAG: d, Parts: parts, SLO: 0}

	nodes := []NodeFree{
		{Node: 0, Free: []mig.SliceType{mig.Slice1g, mig.Slice1g}}, // split only: 2 GPCs
		{Node: 1, Free: []mig.SliceType{mig.Slice7g}},              // monolithic: 7 GPCs
	}
	for _, r := range []Req{req, withPlanner(req)} {
		got := (&FluidFaaS{}).PlaceBatch([]Req{r}, nodes)
		if len(got) != 1 {
			t.Fatal("not placed")
		}
		if got[0].Node != 1 || got[0].Plan.Pipelined() {
			t.Errorf("placed on node %d pipelined=%v; want the rank-0 monolithic plan on node 1",
				got[0].Node, got[0].Plan.Pipelined())
		}
	}
}

// TestFreeViewConsumePanicsOnDoubleBook: handing the same physical
// slice index to two placements in one batch is a scheduler bug and
// must fail loudly, not corrupt the free view.
func TestFreeViewConsumePanicsOnDoubleBook(t *testing.T) {
	views := newFreeViews([]NodeFree{
		{Node: 0, Free: []mig.SliceType{mig.Slice2g, mig.Slice1g}},
	})
	v := &views[0]
	v.consume([]int{0})
	defer func() {
		if recover() == nil {
			t.Error("double-booked index did not panic")
		}
	}()
	v.consume([]int{0})
}

// TestFreeViewCountsTrackConsumption: the incremental multiset index
// stays in sync with the used[] mask, so planner cache keys always
// describe the true remaining free set.
func TestFreeViewCountsTrackConsumption(t *testing.T) {
	views := newFreeViews([]NodeFree{
		{Node: 0, Free: []mig.SliceType{
			mig.Slice2g, mig.Slice1g, mig.Slice2g, mig.Slice4g}},
	})
	v := &views[0]
	v.consume([]int{2, 1})
	if got := pipeline.CountsOf(v.availTypes()); got != v.counts {
		t.Errorf("incremental counts %v out of sync with view %v", v.counts, got)
	}
	if v.remaining != 2 {
		t.Errorf("remaining = %d, want 2", v.remaining)
	}
}
