package scheduler

// INFlessMIG is the INFless baseline with MIG support bolted on (§6):
// monolithic instances, first-fit placement onto the first free slice
// in scan order that fits the whole function, exclusive keep-alive, no
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
	fv := newFreeViews(nodes)
	defer fv.release()
	views := fv.views
	var out []Placement
	for ri, req := range reqs {
		mono := monoTable(req)
		for ni := range views {
			v := &views[ni]
			best := -1
			for i, t := range v.types {
				if !v.used[i] && mono[t].Fits(req.SLO) {
					best = i
					break
				}
			}
			if best == -1 {
				continue
			}
			idx := []int{best}
			v.consume(idx)
			out = append(out, Placement{
				Req: ri, Node: nodes[ni].Node, Plan: mono[v.types[best]].Plan, SliceIdx: idx,
			})
			break
		}
	}
	return out
}
