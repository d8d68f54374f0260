package scheduler

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"fluidfaas/internal/dag"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
)

// withPlanner attaches a fresh memoizing planner, built for the
// request's SLO, to a copy of req.
func withPlanner(req Req) Req {
	req.Planner = pipeline.NewPlanner(req.DAG, req.Parts, req.SLO)
	return req
}

// refPlanner is the plan cache as it stood before planners were built
// for one SLO: keyed by (signature, SLO), with no last-answer memo. It
// keeps the observation stream and statistics that cache produced. Its
// answers come from a fresh pipeline.ConstructRanked walk per probe,
// which pipeline's property test proves equal to a cached answer.
type refPlanner struct {
	seen  map[refKey]bool
	stats pipeline.PlannerStats
	obs   *[]pipeline.PlanObservation // nil: observations are dropped
}

type refKey struct {
	sig uint64
	slo float64
}

func newRefPlanner(obs *[]pipeline.PlanObservation) *refPlanner {
	return &refPlanner{seen: map[refKey]bool{}, obs: obs}
}

// construct answers one probe over the node's unconsumed slices and
// records it as the old cache would have.
func (rp *refPlanner) construct(req Req, types []mig.SliceType) (pipeline.Plan, []int, int, error) {
	plan, idx, rank, err := pipeline.ConstructRanked(req.DAG, req.Parts, types, req.SLO)
	o := pipeline.PlanObservation{SLO: req.SLO, Rank: rank, Err: err}
	key := refKey{pipeline.CountsOf(types).Signature(), req.SLO}
	o.Sig, o.Cached = key.sig, rp.seen[key]
	if o.Cached {
		rp.stats.Hits++
	} else {
		rp.stats.Misses++
		rp.seen[key] = true
	}
	if rp.obs != nil {
		*rp.obs = append(*rp.obs, o)
	}
	return plan, idx, rank, err
}

// placeBatchReference is FluidFaaS.PlaceBatch as it stood before
// per-SLO planners, pooled views and node counts: unpooled views, and
// each probe answered by the request's refPlanner (a fresh one per
// request when refs has none for its Planner, as for a nil Planner),
// mapping the chosen indices back to the node's free list. It is the
// oracle the placement under test must reproduce, probe for probe.
func placeBatchReference(reqs []Req, nodes []NodeFree, refs map[*pipeline.Planner]*refPlanner) []Placement {
	views := newRefViews(nodes)
	var out []Placement
	for ri, req := range reqs {
		rp := refs[req.Planner]
		if req.Planner == nil || rp == nil {
			rp = newRefPlanner(nil)
		}
		best, bestRank, bestGPCs := -1, 0, 0
		var bestPlan pipeline.Plan
		var bestIdx []int
		for ni := range views {
			v := &views[ni]
			if v.remaining == 0 {
				continue
			}
			types, orig := v.avail()
			plan, idx, rank, err := rp.construct(req, types)
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

// withCounts returns a copy of nodes where a random half carry their
// multiset in Counts, as the platform's views do; the rest are tallied
// by PlaceBatch.
func withCounts(rng *rand.Rand, nodes []NodeFree) []NodeFree {
	out := append([]NodeFree(nil), nodes...)
	for i := range out {
		if rng.Intn(2) == 0 {
			out[i].Counts = pipeline.CountsOf(out[i].Free)
		}
	}
	return out
}

// TestPlaceBatchPlannerEquivalence: over seeded random batches of dnn
// apps x variants — some of them one request repeated, as a control
// round asks for several instances of one function — and random node
// free views with and without Counts, shared planners, nil planners
// and the pre-memo oracle must yield the same placements (same nodes,
// plans and slice indices). The shared planners must also report the
// oracle's exact PlanObservation sequence and PlannerStats, and serve
// repeated multisets from cache.
func TestPlaceBatchPlannerEquivalence(t *testing.T) {
	var pool []Req
	var gotObs, wantObs []pipeline.PlanObservation
	refs := map[*pipeline.Planner]*refPlanner{}
	for _, id := range dnn.AppIDs {
		for _, v := range dnn.Variants {
			if !dnn.Get(id).Excluded(v) {
				req := withPlanner(reqFor(t, id, v))
				req.Planner.SetObserver(func(o pipeline.PlanObservation) { gotObs = append(gotObs, o) })
				refs[req.Planner] = newRefPlanner(&wantObs)
				pool = append(pool, req)
			}
		}
	}
	pol := &FluidFaaS{}
	rng := rand.New(rand.NewSource(42))
	placed, pipelined, repeated := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		shared := make([]Req, 1+rng.Intn(8))
		for i := range shared {
			shared[i] = pool[rng.Intn(len(pool))]
		}
		if trial%3 == 0 {
			repeated++
			for i := range shared {
				shared[i] = shared[0]
			}
		}
		bare := make([]Req, len(shared))
		for i, r := range shared {
			r.Planner = nil
			bare[i] = r
		}
		nodes := randomNodes(rng)
		counted := withCounts(rng, nodes)

		gotObs, wantObs = gotObs[:0], wantObs[:0]
		want := placeBatchReference(shared, nodes, refs)
		for _, pl := range want {
			placed++
			if pl.Plan.Pipelined() {
				pipelined++
			}
		}
		if got := pol.PlaceBatch(shared, counted); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: shared planners diverged from the oracle:\ngot:  %+v\nwant: %+v", trial, got, want)
		}
		if !reflect.DeepEqual(gotObs, wantObs) {
			t.Fatalf("trial %d: observations diverged from the oracle:\ngot:  %+v\nwant: %+v", trial, gotObs, wantObs)
		}
		if got := pol.PlaceBatch(bare, counted); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: nil planners diverged from the oracle:\ngot:  %+v\nwant: %+v", trial, got, want)
		}
		if got := pol.PlaceBatch(bare, nodes); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: nil planners over uncounted views diverged from the oracle:\ngot:  %+v\nwant: %+v", trial, got, want)
		}
	}

	if placed == 0 || pipelined == 0 || repeated == 0 {
		t.Fatalf("%d placements, %d pipelined, %d repeated batches: the draws never exercise construction",
			placed, pipelined, repeated)
	}
	hits := uint64(0)
	for _, r := range pool {
		st := r.Planner.Stats()
		if want := refs[r.Planner].stats; st != want {
			t.Errorf("func %d: planner stats %+v, oracle %+v", r.Func, st, want)
		}
		hits += st.Hits
	}
	if hits == 0 {
		t.Error("no cache hits across 300 batches; memoization is dead code")
	}
}

// TestPlaceBatchPlannerForOtherSLO: a Planner built for another SLO is
// not consulted; the request places as with no Planner at all.
func TestPlaceBatchPlannerForOtherSLO(t *testing.T) {
	req := reqFor(t, dnn.ImageClassification, dnn.Medium)
	other := req
	other.Planner = pipeline.NewPlanner(req.DAG, req.Parts, 2*req.SLO)
	nodes := defaultNode(2)
	want := (&FluidFaaS{}).PlaceBatch([]Req{req}, nodes)
	if got := (&FluidFaaS{}).PlaceBatch([]Req{other}, nodes); !reflect.DeepEqual(got, want) {
		t.Fatalf("placed %+v, want %+v", got, want)
	}
	if st := other.Planner.Stats(); st.Lookups() != 0 {
		t.Errorf("planner for another SLO answered %d lookups", st.Lookups())
	}
}

// unplaceableRound is the scale workload's common control round: four
// instances asked for one heavy function, each request carrying the
// function's planner, over 16 nodes whose only free slices are 1g.
func unplaceableRound(t testing.TB) ([]Req, []NodeFree) {
	a := dnn.Get(dnn.ImageClassification)
	d := a.BuildDAG(dnn.Large)
	parts, err := d.EnumeratePartitions(mig.Slice7g)
	if err != nil {
		t.Fatal(err)
	}
	slo, _ := a.SLOLatency(dnn.Large, 1.5)
	req := Req{DAG: d, Parts: parts, SLO: slo, Planner: pipeline.NewPlanner(d, parts, slo)}
	reqs := []Req{req, req, req, req}
	nodes := make([]NodeFree, 16)
	for n := range nodes {
		nodes[n].Node = n
		for g := 0; g < 8; g++ {
			nodes[n].Free = append(nodes[n].Free, mig.Slice1g)
		}
		nodes[n].Counts = pipeline.CountsOf(nodes[n].Free)
	}
	return reqs, nodes
}

// TestUnplaceableRoundAllocatesNothing: once its planner has seen the
// multiset, a round that places nothing allocates nothing: no views, no
// used masks, no map probes that box a key.
func TestUnplaceableRoundAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	reqs, nodes := unplaceableRound(t)
	pol := &FluidFaaS{}
	if got := pol.PlaceBatch(reqs, nodes); len(got) != 0 {
		t.Fatalf("placed %d heavy requests on 1g slices", len(got))
	}
	if n := testing.AllocsPerRun(100, func() { pol.PlaceBatch(reqs, nodes) }); n != 0 {
		t.Errorf("an unplaceable round allocates %v times", n)
	}
}

// TestFluidFaaSSharedConcurrentPlaceBatch: one *FluidFaaS serves two
// goroutines at once, each with its own planners over the same node
// views; both must keep placing exactly as the oracle. Run under -race,
// it checks that the policy and its view pool share no unsynchronized
// state.
func TestFluidFaaSSharedConcurrentPlaceBatch(t *testing.T) {
	pol := &FluidFaaS{}
	rng := rand.New(rand.NewSource(7))
	type round struct {
		reqs  []Req
		nodes []NodeFree
		want  []Placement
	}
	var rounds []round
	for len(rounds) < 20 {
		var reqs []Req
		for i := 1 + rng.Intn(4); i > 0; i-- {
			id := dnn.AppIDs[rng.Intn(len(dnn.AppIDs))]
			v := dnn.Variants[rng.Intn(len(dnn.Variants))]
			if !dnn.Get(id).Excluded(v) {
				reqs = append(reqs, reqFor(t, id, v))
			}
		}
		nodes := withCounts(rng, randomNodes(rng))
		rounds = append(rounds, round{reqs, nodes, placeBatchReference(reqs, nodes, nil)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := make([][]Req, len(rounds))
			for i, r := range rounds {
				for _, req := range r.reqs {
					own[i] = append(own[i], withPlanner(req))
				}
			}
			for iter := 0; iter < 50; iter++ {
				for i, r := range rounds {
					if got := pol.PlaceBatch(own[i], r.nodes); !reflect.DeepEqual(got, r.want) {
						t.Errorf("goroutine %d round %d: placed %+v, want %+v", g, i, got, r.want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
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
	fv := newFreeViews([]NodeFree{
		{Node: 0, Free: []mig.SliceType{mig.Slice2g, mig.Slice1g}},
	})
	v := &fv.views[0]
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
	fv := newFreeViews([]NodeFree{
		{Node: 0, Free: []mig.SliceType{
			mig.Slice2g, mig.Slice1g, mig.Slice2g, mig.Slice4g}},
	})
	v := &fv.views[0]
	v.consume([]int{2, 1})
	if got := pipeline.CountsOf(v.availTypes()); got != v.counts {
		t.Errorf("incremental counts %v out of sync with view %v", v.counts, got)
	}
	if v.remaining != 2 {
		t.Errorf("remaining = %d, want 2", v.remaining)
	}
}
