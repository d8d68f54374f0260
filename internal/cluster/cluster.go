// Package cluster assembles MIG-partitioned GPUs into nodes and a
// cluster, mirroring the paper's testbed: two invoker nodes with eight
// A100-80GB GPUs each (Table 3).
package cluster

import (
	"fluidfaas/internal/mig"
)

// Node is one invoker node holding GPUs and host (CPU) memory. Host
// memory backs the warm keep-alive state: evicted models park there.
type Node struct {
	ID       int
	GPUs     []*mig.GPU
	CPUMemGB float64

	// pool manages host memory used by warm (evicted) models; lazily
	// initialised from CPUMemGB on first use.
	pool *MemPool

	// down marks a crashed node: no placement until it recovers, and
	// its warm host-memory copies are lost.
	down bool

	// gen counts node-level free-set changes (health flips); GPUs carry
	// their own generations.
	gen uint64
	// clusterGen is the owning cluster's free-set generation, advanced
	// with gen.
	clusterGen *uint64
}

// Healthy reports whether the node is up.
func (n *Node) Healthy() bool { return !n.down }

// SetHealthy marks the node crashed (false) or recovered (true). GPU
// and slice health are tracked separately.
func (n *Node) SetHealthy(h bool) {
	n.down = !h
	n.gen++
	if n.clusterGen != nil {
		*n.clusterGen++
	}
}

// FreeGen returns a generation number for the node's free-slice set:
// FreeSlices returns the same view as long as FreeGen is unchanged.
func (n *Node) FreeGen() uint64 {
	gen := n.gen
	for _, g := range n.GPUs {
		gen += g.Gen()
	}
	return gen
}

// Pool returns the node's host-memory pool, initialising it from
// CPUMemGB on first use.
func (n *Node) Pool() *MemPool {
	if n.pool == nil {
		n.pool = NewMemPool(n.CPUMemGB)
	}
	return n.pool
}

// Cluster is a set of invoker nodes.
type Cluster struct {
	Nodes []*Node

	// gen is the cluster's free-set generation: every node health flip
	// and every GPU's slice allocate, release, health and quarantine
	// flip advances it (New wires them).
	gen uint64
}

// FreeGen returns the cluster's free-set generation: every node's
// FreeSlices returns the same view as long as FreeGen is unchanged.
func (c *Cluster) FreeGen() uint64 { return c.gen }

// Spec describes a cluster to construct.
type Spec struct {
	// Nodes is the node count (paper: 2).
	Nodes int
	// GPUConfigs gives the per-GPU partition for each GPU of a node
	// (paper: 8 GPUs per node). The same layout is applied to every node.
	GPUConfigs []mig.Config
	// CPUMemGB per node (paper Table 3: 1440 GB).
	CPUMemGB float64
}

// DefaultSpec returns the paper's testbed: 2 nodes × 8 GPUs, each GPU
// partitioned 4g.40gb + 2g.20gb + 1g.10gb, 1440 GB host memory.
func DefaultSpec() Spec {
	return Spec{
		Nodes:      2,
		GPUConfigs: mig.UniformNode(mig.DefaultConfig, 8),
		CPUMemGB:   1440,
	}
}

// New builds a cluster from spec. GPU IDs are globally unique.
func New(spec Spec) *Cluster {
	if spec.Nodes <= 0 {
		panic("cluster: need at least one node")
	}
	if len(spec.GPUConfigs) == 0 {
		panic("cluster: need at least one GPU per node")
	}
	c := &Cluster{}
	gpuID := 0
	for n := 0; n < spec.Nodes; n++ {
		node := &Node{ID: n, CPUMemGB: spec.CPUMemGB, clusterGen: &c.gen}
		for _, cfg := range spec.GPUConfigs {
			g := mig.NewGPU(n, gpuID, cfg)
			g.ShareGen(&c.gen)
			node.GPUs = append(node.GPUs, g)
			gpuID++
		}
		c.Nodes = append(c.Nodes, node)
	}
	return c
}

// FreeSlices returns the node's free healthy slices across all GPUs,
// largest first within each GPU, GPUs in ID order. A crashed node has
// no free slices.
func (n *Node) FreeSlices() []*mig.Slice {
	if n.down {
		return nil
	}
	var out []*mig.Slice
	for _, g := range n.GPUs {
		out = append(out, g.FreeSlices()...)
	}
	return out
}

// Slices returns every slice of the node, GPUs in ID order.
func (n *Node) Slices() []*mig.Slice {
	var out []*mig.Slice
	for _, g := range n.GPUs {
		out = append(out, g.Slices...)
	}
	return out
}

// FreeGPCs returns total free compute on the node.
func (n *Node) FreeGPCs() int {
	if n.down {
		return 0
	}
	t := 0
	for _, g := range n.GPUs {
		t += g.FreeGPCs()
	}
	return t
}

// TotalGPCs returns the node's total compute capacity.
func (n *Node) TotalGPCs() int {
	t := 0
	for _, g := range n.GPUs {
		t += g.Config().TotalGPCs()
	}
	return t
}

// AllGPUs returns every GPU in the cluster in ID order.
func (c *Cluster) AllGPUs() []*mig.GPU {
	var out []*mig.GPU
	for _, n := range c.Nodes {
		out = append(out, n.GPUs...)
	}
	return out
}

// TotalGPCs returns the cluster's total compute capacity.
func (c *Cluster) TotalGPCs() int {
	t := 0
	for _, n := range c.Nodes {
		t += n.TotalGPCs()
	}
	return t
}

// ActiveGPCs returns compute currently processing across the cluster.
func (c *Cluster) ActiveGPCs() int {
	t := 0
	for _, n := range c.Nodes {
		for _, g := range n.GPUs {
			t += g.ActiveGPCs()
		}
	}
	return t
}

// OccupiedGPCs returns compute currently allocated across the cluster.
func (c *Cluster) OccupiedGPCs() int {
	t := 0
	for _, n := range c.Nodes {
		for _, g := range n.GPUs {
			t += g.OccupiedGPCs()
		}
	}
	return t
}

// GPUTime returns summed GPU time (union activity per GPU, §6) at now.
func (c *Cluster) GPUTime(now float64) float64 {
	t := 0.0
	for _, n := range c.Nodes {
		for _, g := range n.GPUs {
			t += g.ActiveTime(now)
		}
	}
	return t
}

// MIGTime returns summed per-slice active time at now.
func (c *Cluster) MIGTime(now float64) float64 {
	t := 0.0
	for _, n := range c.Nodes {
		for _, g := range n.GPUs {
			t += g.MIGTime(now)
		}
	}
	return t
}
