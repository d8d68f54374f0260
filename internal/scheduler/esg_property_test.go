package scheduler

import (
	"math"
	"testing"
	"testing/quick"

	"fluidfaas/internal/dag"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
)

// directMono builds the DAG's monolithic plan on t with
// pipeline.Monolithic, bypassing the per-function table, and reports its
// GPC-seconds cost and whether it exists and meets slo. The oracles use
// it so they stay independent of the table they check.
func directMono(d *dag.DAG, t mig.SliceType, slo float64) (cost float64, fits bool) {
	plan, err := pipeline.Monolithic(d, t)
	if err != nil {
		return 0, false
	}
	return float64(t.GPCs()) * plan.Latency, slo <= 0 || plan.Latency <= slo
}

// bruteForceCost finds the optimal total assignment cost (GPC-seconds,
// deferred requests charged the defer penalty) by exhaustive search —
// the ground truth A* with dual-blade pruning must match.
func bruteForceCost(reqs []Req, nodes []NodeFree) float64 {
	type gslice struct{ node, idx int }
	var slices []gslice
	for ni, n := range nodes {
		for si := range n.Free {
			slices = append(slices, gslice{ni, si})
		}
	}
	best := math.Inf(1)
	used := make([]bool, len(slices))
	var rec func(i int, cost float64)
	rec = func(i int, cost float64) {
		if cost >= best {
			return
		}
		if i == len(reqs) {
			best = cost
			return
		}
		// Defer option.
		rec(i+1, cost+deferPenalty)
		for gi, gs := range slices {
			if used[gi] {
				continue
			}
			c, fits := directMono(reqs[i].DAG, nodes[gs.node].Free[gs.idx], reqs[i].SLO)
			if !fits {
				continue
			}
			used[gi] = true
			rec(i+1, cost+c)
			used[gi] = false
		}
	}
	rec(0, 0)
	return best
}

// esgCost computes the total cost of ESG's chosen placement.
func esgCost(placements []Placement, reqs []Req, nodes []NodeFree) float64 {
	placed := map[int]bool{}
	cost := 0.0
	for _, p := range placements {
		placed[p.Req] = true
		c, _ := directMono(reqs[p.Req].DAG, p.Plan.Stages[0].SliceType, 0)
		cost += c
	}
	for i := range reqs {
		if !placed[i] {
			cost += deferPenalty
		}
	}
	return cost
}

// TestESGMatchesBruteForce: the A* search with dual-blade pruning finds
// the optimal assignment on randomly generated small scheduling rounds.
func TestESGMatchesBruteForce(t *testing.T) {
	apps := []dnn.AppID{dnn.ImageClassification, dnn.DepthRecognition,
		dnn.BackgroundElimination, dnn.ExpandedClassification}
	variants := []dnn.Variant{dnn.Small, dnn.Medium}
	sliceMenu := []mig.SliceType{mig.Slice1g, mig.Slice2g, mig.Slice4g, mig.Slice3g}

	f := func(reqPick []uint8, slicePick []uint8) bool {
		nReq := len(reqPick)%4 + 1
		nSlice := len(slicePick)%5 + 1
		var reqs []Req
		for i := 0; i < nReq; i++ {
			pick := uint8(0)
			if i < len(reqPick) {
				pick = reqPick[i]
			}
			app := dnn.Get(apps[int(pick)%len(apps)])
			v := variants[int(pick/16)%len(variants)]
			if app.Excluded(v) {
				v = dnn.Small
			}
			d := app.BuildDAG(v)
			parts, err := d.EnumeratePartitions(mig.Slice7g)
			if err != nil {
				return false
			}
			slo, _ := app.SLOLatency(v, 1.5)
			reqs = append(reqs, Req{Func: i, DAG: d, Parts: parts, SLO: slo})
		}
		var free []mig.SliceType
		for i := 0; i < nSlice; i++ {
			pick := uint8(0)
			if i < len(slicePick) {
				pick = slicePick[i]
			}
			free = append(free, sliceMenu[int(pick)%len(sliceMenu)])
		}
		nodes := []NodeFree{{Node: 0, Free: free}}

		got := esgCost((&ESG{}).PlaceBatch(reqs, nodes), reqs, nodes)
		want := bruteForceCost(reqs, nodes)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPoliciesNeverDoubleAllocate: across random batches, no policy
// assigns the same physical slice twice.
func TestPoliciesNeverDoubleAllocate(t *testing.T) {
	mk := func(n int) ([]Req, []NodeFree) {
		var reqs []Req
		for i := 0; i < n; i++ {
			app := dnn.Get(dnn.AppIDs[i%3])
			v := dnn.Variants[i%3]
			if app.Excluded(v) {
				v = dnn.Small
			}
			d := app.BuildDAG(v)
			parts, _ := d.EnumeratePartitions(mig.Slice7g)
			slo, _ := app.SLOLatency(v, 1.5)
			reqs = append(reqs, Req{Func: i, DAG: d, Parts: parts, SLO: slo})
		}
		nodes := []NodeFree{
			{Node: 0, Free: []mig.SliceType{mig.Slice4g, mig.Slice2g, mig.Slice1g, mig.Slice2g}},
			{Node: 1, Free: []mig.SliceType{mig.Slice4g, mig.Slice1g}},
		}
		return reqs, nodes
	}
	for _, pol := range []Policy{&FluidFaaS{}, &ESG{}, &INFlessMIG{}} {
		for n := 1; n <= 8; n++ {
			reqs, nodes := mk(n)
			placements := pol.PlaceBatch(reqs, nodes)
			seen := map[[2]int]bool{}
			for _, p := range placements {
				if len(p.SliceIdx) != len(p.Plan.Stages) {
					t.Fatalf("%s: stage/slice arity mismatch", pol.Name())
				}
				for _, si := range p.SliceIdx {
					key := [2]int{p.Node, si}
					if seen[key] {
						t.Fatalf("%s: slice %v allocated twice (n=%d)", pol.Name(), key, n)
					}
					seen[key] = true
					if si < 0 || si >= len(nodes[p.Node].Free) {
						t.Fatalf("%s: slice index %d out of range", pol.Name(), si)
					}
					if p.Plan.Stages[indexOf(p.SliceIdx, si)].SliceType != nodes[p.Node].Free[si] {
						t.Fatalf("%s: stage type mismatch at slice %d", pol.Name(), si)
					}
				}
			}
		}
	}
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// TestDualBladePruningReducesSearch: both blades cut explored states
// substantially on a contended round, without changing the optimum.
func TestDualBladePruningReducesSearch(t *testing.T) {
	var reqs []Req
	for i := 0; i < 6; i++ {
		app := dnn.Get(dnn.AppIDs[i%4])
		v := dnn.Medium
		if app.Excluded(v) {
			v = dnn.Small
		}
		d := app.BuildDAG(v)
		parts, _ := d.EnumeratePartitions(mig.Slice7g)
		slo, _ := app.SLOLatency(v, 1.5)
		reqs = append(reqs, Req{Func: i, DAG: d, Parts: parts, SLO: slo})
	}
	var free []mig.SliceType
	for g := 0; g < 4; g++ {
		free = append(free, mig.Slice4g, mig.Slice2g, mig.Slice1g)
	}
	nodes := []NodeFree{{Node: 0, Free: free}}

	full := &ESG{}
	fullPl := full.PlaceBatch(reqs, nodes)
	noPrune := &ESG{DisableDominance: true, DisableBound: true}
	noPrunePl := noPrune.PlaceBatch(reqs, nodes)

	if full.Explored <= 0 || noPrune.Explored <= 0 {
		t.Fatal("explored counters not recorded")
	}
	if full.Explored*2 > noPrune.Explored {
		t.Errorf("dual-blade pruning explored %d states vs %d unpruned — expected at least 2x reduction",
			full.Explored, noPrune.Explored)
	}
	// Same optimal cost either way.
	if got, want := esgCost(fullPl, reqs, nodes), esgCost(noPrunePl, reqs, nodes); math.Abs(got-want) > 1e-9 {
		t.Errorf("pruning changed the optimum: %v vs %v", got, want)
	}
}
