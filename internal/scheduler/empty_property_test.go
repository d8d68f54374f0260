package scheduler

import (
	"math/rand"
	"testing"

	"fluidfaas/internal/dnn"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
)

// permuted returns a copy of nodes with each node's Free shuffled and a
// random half carrying their Counts: same multisets, other order.
func permuted(rng *rand.Rand, nodes []NodeFree) []NodeFree {
	out := make([]NodeFree, len(nodes))
	for i, n := range nodes {
		free := append([]mig.SliceType(nil), n.Free...)
		rng.Shuffle(len(free), func(a, b int) { free[a], free[b] = free[b], free[a] })
		out[i] = NodeFree{Node: n.Node, Free: free}
		if rng.Intn(2) == 0 {
			out[i].Counts = pipeline.CountsOf(free)
		}
	}
	return out
}

// freeSlices counts the free slices across nodes.
func freeSlices(nodes []NodeFree) int {
	n := 0
	for _, nf := range nodes {
		n += len(nf.Free)
	}
	return n
}

// TestEmptyAnswerDependsOnCounts: whether PlaceBatch places anything
// depends only on the requests' functions and each node's free
// multiset, for every policy: over seeded random batches and views,
// permuting each node's Free list never turns an empty answer into a
// non-empty one or back. ESG searches only the first 64 free slices,
// so its draws stay within that window (TestESGEmptyPastSliceCap shows
// why).
func TestEmptyAnswerDependsOnCounts(t *testing.T) {
	pool := sloPool(t)
	policies := []Policy{&FluidFaaS{}, &ESG{}, &INFlessMIG{}}
	empty := make([]int, len(policies))
	placed := make([]int, len(policies))
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 400; trial++ {
		shape := trial % 4
		reqs := make([]Req, 1+rng.Intn(4))
		for i := range reqs {
			reqs[i] = pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 {
				reqs[i].Planner = nil
			}
		}
		nodes := baselineNodes(rng, shape)
		for pi, pol := range policies {
			if _, ok := pol.(*ESG); ok && freeSlices(nodes) > 64 {
				continue
			}
			want := len(pol.PlaceBatch(reqs, nodes)) == 0
			if want {
				empty[pi]++
			} else {
				placed[pi]++
			}
			for k := 0; k < 3; k++ {
				perm := permuted(rng, nodes)
				if got := len(pol.PlaceBatch(reqs, perm)) == 0; got != want {
					t.Fatalf("trial %d %s: empty answer %v on %v, %v on the permutation %v",
						trial, pol.Name(), want, nodes, got, perm)
				}
			}
		}
	}
	for pi, pol := range policies {
		if empty[pi] < 20 || placed[pi] < 20 {
			t.Errorf("%s: %d empty and %d placing answers; the draws do not exercise both",
				pol.Name(), empty[pi], placed[pi])
		}
	}
}

// TestESGEmptyPastSliceCap: past 64 free slices ESG's answer depends on
// order, not just counts. A function that needs more than a 1g slice
// finds nothing among the first 64 free slices when the one 4g slice
// sits 65th, and places once it moves forward. So a memo of empty
// answers keyed on free-slice counts would be unsound for ESG; the
// platform's keys on the cluster's free-set generation.
func TestESGEmptyPastSliceCap(t *testing.T) {
	var req Req
	found := false
	for _, id := range dnn.AppIDs {
		for _, v := range dnn.Variants {
			if dnn.Get(id).Excluded(v) || found {
				continue
			}
			r := reqFor(t, id, v)
			mono := monoTable(r)
			if !mono[mig.Slice1g].Fits(r.SLO) && mono[mig.Slice4g].Fits(r.SLO) {
				req, found = r, true
			}
		}
	}
	if !found {
		t.Fatal("no function fits 4g but not 1g")
	}
	small := make([]mig.SliceType, 60)
	for i := range small {
		small[i] = mig.Slice1g
	}
	late := []mig.SliceType{mig.Slice1g, mig.Slice1g, mig.Slice1g, mig.Slice1g, mig.Slice4g}
	early := []mig.SliceType{mig.Slice4g, mig.Slice1g, mig.Slice1g, mig.Slice1g, mig.Slice1g}
	views := func(second []mig.SliceType) []NodeFree {
		return []NodeFree{{Node: 0, Free: small}, {Node: 1, Free: second}}
	}
	reqs := []Req{req}
	if got := (&ESG{}).PlaceBatch(reqs, views(late)); len(got) != 0 {
		t.Errorf("ESG placed %+v with the 4g slice past its window", got)
	}
	if got := (&ESG{}).PlaceBatch(reqs, views(early)); len(got) != 1 {
		t.Errorf("ESG placed %d requests with the 4g slice inside its window, want 1", len(got))
	}
	for _, pol := range []Policy{&FluidFaaS{}, &INFlessMIG{}} {
		if got := pol.PlaceBatch(reqs, views(late)); len(got) != 1 {
			t.Errorf("%s placed %d requests, want 1", pol.Name(), len(got))
		}
	}
}
