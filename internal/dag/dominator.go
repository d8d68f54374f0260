package dag

// Dominators returns, for each node, the set of nodes that appear on
// every path from any entry to it (including itself). Graphs with
// multiple entries are handled through a virtual super-entry. It uses
// the classic iterative data-flow algorithm; on a DAG a single pass over
// a topological order converges.
func (d *DAG) Dominators() (map[NodeID]map[NodeID]bool, error) {
	order, err := d.TopoSort()
	if err != nil {
		return nil, err
	}
	dom := make(map[NodeID]map[NodeID]bool, len(d.nodes))
	for _, u := range order {
		if len(d.pred[u]) == 0 {
			// Entry nodes dominate only themselves.
			dom[u] = map[NodeID]bool{u: true}
			continue
		}
		// Intersect predecessors' dominator sets.
		var inter map[NodeID]bool
		for _, p := range d.pred[u] {
			pd := dom[p]
			if inter == nil {
				inter = make(map[NodeID]bool, len(pd))
				for k := range pd {
					inter[k] = true
				}
				continue
			}
			for k := range inter {
				if !pd[k] {
					delete(inter, k)
				}
			}
		}
		if inter == nil {
			inter = make(map[NodeID]bool)
		}
		inter[u] = true
		dom[u] = inter
	}
	return dom, nil
}

// Segment is a self-contained group of nodes: either a node that every
// execution passes through (a dominator of the function's exit) together
// with the branch region it opens, or the fork region before the first
// such node. Segments are the units the pipeline partitioner splits
// between, following the dominator-based method of ESG that FluidFaaS
// extends (§5.2.2): cutting anywhere else would split a branch across
// pipeline stages.
type Segment struct {
	Nodes []NodeID
}

// Linearize splits the DAG into the ordered list of segments between
// consecutive cut points. A cut point is a node on every entry-to-exit
// path (computed with virtual super-entry/exit, so fork-at-entry and
// join-at-exit graphs like Fig. 7's example work). For a sequential
// chain every node is its own segment; branch regions collapse into the
// segment of the cut point that opens them.
func (d *DAG) Linearize() ([]Segment, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	order, err := d.TopoSort()
	if err != nil {
		return nil, err
	}
	// Dominators of a virtual exit = intersection of the exit-node
	// dominator sets; a virtual entry is modelled by entry nodes
	// dominating only themselves (see Dominators).
	dom, err := d.Dominators()
	if err != nil {
		return nil, err
	}
	var cutSet map[NodeID]bool
	for i := range d.nodes {
		if len(d.succ[i]) != 0 {
			continue
		}
		ed := dom[NodeID(i)]
		if cutSet == nil {
			cutSet = make(map[NodeID]bool, len(ed))
			for k := range ed {
				cutSet[k] = true
			}
			continue
		}
		for k := range cutSet {
			if !ed[k] {
				delete(cutSet, k)
			}
		}
	}

	pos := make(map[NodeID]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	var cuts []NodeID
	for _, id := range order {
		if cutSet[id] {
			cuts = append(cuts, id)
		}
	}

	var segs []Segment
	// Fork region before the first cut point (e.g. two models both
	// consuming the raw input).
	firstCut := len(order)
	if len(cuts) > 0 {
		firstCut = pos[cuts[0]]
	}
	if firstCut > 0 {
		seg := Segment{}
		for p := 0; p < firstCut; p++ {
			seg.Nodes = append(seg.Nodes, order[p])
		}
		segs = append(segs, seg)
	}
	for ci, c := range cuts {
		seg := Segment{Nodes: []NodeID{c}}
		hi := len(order)
		if ci+1 < len(cuts) {
			hi = pos[cuts[ci+1]]
		}
		for p := pos[c] + 1; p < hi; p++ {
			seg.Nodes = append(seg.Nodes, order[p])
		}
		segs = append(segs, seg)
	}
	return segs, nil
}
