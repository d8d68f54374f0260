// Package dag implements the FFS DAG of the FluidFaaS programming model:
// the graph of DNN components *within* one serverless function, each node
// carrying a performance profile, plus the dominator-based linearisation
// and the coefficient-of-variation (CV) ranked pipeline partitioning of
// paper §5.2.
package dag

import (
	"fmt"

	"fluidfaas/internal/mig"
)

// NodeID indexes a node within its DAG.
type NodeID int

// Node is one component (DNN model plus its pre/post-processing) of a
// FluidFaaS function.
type Node struct {
	Name string
	// MemGB is the GPU memory footprint of the component (weights +
	// activations for the function variant's batch size).
	MemGB float64
	// OutMB is the size of the component's output tensor in megabytes;
	// it drives the host shared-memory transfer cost when the component
	// sits at a pipeline-stage boundary (§5.2.1, §7.3).
	OutMB float64
	// Exec maps slice profile to execution time in seconds. A missing
	// entry means the component cannot run on that profile (OOM).
	Exec map[mig.SliceType]float64
}

// ExecOn returns the component's execution time on the slice profile and
// whether it can run there at all.
func (n *Node) ExecOn(t mig.SliceType) (float64, bool) {
	d, ok := n.Exec[t]
	return d, ok
}

// DAG is a directed acyclic graph of components. Construction mirrors the
// paper's defDAG: nodes are registered and data flows declared as edges.
type DAG struct {
	nodes []Node
	succ  [][]NodeID
	pred  [][]NodeID

	// MonoMinGPCs is the minimum compute a slice needs to host the
	// *whole* function as one stage (0 = no floor). It encodes
	// profile-level constraints that only bind when every component is
	// co-located — e.g. the paper's expanded-image-classification at the
	// medium variant needs a 4g.40gb slice monolithically (Table 5) even
	// though a 3g.40gb has the same memory. Per-stage deployments are
	// unaffected.
	MonoMinGPCs int

	// TransferScale multiplies every stage-boundary hop cost of this DAG
	// (0 means 1, the paper's measured cost model). It exists for the
	// transfer-sensitivity ablation; being per-DAG run state rather than
	// a package global keeps concurrent runs independent.
	TransferScale float64
}

// New returns an empty DAG.
func New() *DAG { return &DAG{} }

// AddNode registers a component and returns its ID (the analog of
// FluidFaaS.Module.reg).
func (d *DAG) AddNode(n Node) NodeID {
	d.nodes = append(d.nodes, n)
	d.succ = append(d.succ, nil)
	d.pred = append(d.pred, nil)
	return NodeID(len(d.nodes) - 1)
}

// AddEdge declares a dataflow from u to v.
func (d *DAG) AddEdge(u, v NodeID) {
	if !d.valid(u) || !d.valid(v) {
		panic(fmt.Sprintf("dag: edge (%d,%d) out of range", u, v))
	}
	if u == v {
		panic("dag: self edge")
	}
	d.succ[u] = append(d.succ[u], v)
	d.pred[v] = append(d.pred[v], u)
}

func (d *DAG) valid(id NodeID) bool { return id >= 0 && int(id) < len(d.nodes) }

// Len returns the node count.
func (d *DAG) Len() int { return len(d.nodes) }

// Node returns the node with the given ID.
func (d *DAG) Node(id NodeID) *Node { return &d.nodes[id] }

// Succ returns the successors of id.
func (d *DAG) Succ(id NodeID) []NodeID { return d.succ[id] }

// Validate checks that the graph is non-empty and acyclic. Multiple
// entries (components consuming the raw event) and multiple exits are
// allowed, matching the Fig. 7 programming example where two models both
// read the input.
func (d *DAG) Validate() error {
	if len(d.nodes) == 0 {
		return fmt.Errorf("dag: empty graph")
	}
	if _, err := d.TopoSort(); err != nil {
		return err
	}
	return nil
}

// TopoSort returns a topological order, or an error if the graph has a
// cycle. Ties break by node ID so the order is deterministic.
func (d *DAG) TopoSort() ([]NodeID, error) {
	indeg := make([]int, len(d.nodes))
	for i := range d.nodes {
		indeg[i] = len(d.pred[i])
	}
	var ready []NodeID
	for i := range d.nodes {
		if indeg[i] == 0 {
			ready = append(ready, NodeID(i))
		}
	}
	var order []NodeID
	for len(ready) > 0 {
		// Pop the smallest ID for determinism.
		minI := 0
		for i := range ready {
			if ready[i] < ready[minI] {
				minI = i
			}
		}
		u := ready[minI]
		ready = append(ready[:minI], ready[minI+1:]...)
		order = append(order, u)
		for _, v := range d.succ[u] {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	if len(order) != len(d.nodes) {
		return nil, fmt.Errorf("dag: cycle detected")
	}
	return order, nil
}

// TotalMemGB returns the summed footprint of all components — the memory
// a monolithic (non-pipeline) deployment needs.
func (d *DAG) TotalMemGB() float64 {
	t := 0.0
	for i := range d.nodes {
		t += d.nodes[i].MemGB
	}
	return t
}
