package scheduler

import (
	"fluidfaas/internal/pipeline"
)

// INFlessMIG is the INFless baseline with MIG support bolted on (§6):
// monolithic instances, greedy first-fit placement onto the smallest
// free slice that fits the whole function, exclusive keep-alive, no
// pipelines and no time sharing.
type INFlessMIG struct{}

// Name implements Policy.
func (*INFlessMIG) Name() string { return "infless" }

// Pipelines implements Policy.
func (*INFlessMIG) Pipelines() bool { return false }

// TimeSharing implements Policy.
func (*INFlessMIG) TimeSharing() bool { return false }

// Migration implements Policy.
func (*INFlessMIG) Migration() bool { return false }

// PlaceBatch greedily assigns each request to the first fitting free
// slice in scan order. INFless predates MIG, so its placement is not
// slice-size-aware: it takes the first (often largest) slice the
// function fits, wasting big slices on small functions. That lack of a
// global search is what costs it against ESG (§7.1: ESG outperforms
// INFless by 14% in light workloads).
func (*INFlessMIG) PlaceBatch(reqs []Req, nodes []NodeFree) []Placement {
	views := newFreeViews(nodes)
	var out []Placement
	for ri, req := range reqs {
		for ni := range views {
			types, orig := views[ni].avail()
			best := -1
			for ai, t := range types {
				if !monoFits(req.DAG, t, req.SLO) {
					continue
				}
				best = ai
				break
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
