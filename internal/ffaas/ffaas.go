// Package ffaas is the FluidFaaS programming model (paper §5.2.1,
// Fig. 7): developers wrap each DNN component in a Module, register the
// components and their dataflow in DefDAG, and the runtime takes care of
// everything else. BUILDDAG mode constructs the FFS DAG and profiles its
// components; the invoker (internal/pipeline) turns those profiles into
// a pipeline over free MIG slices, and internal/platform serves it.
package ffaas

import (
	"fmt"

	"fluidfaas/internal/dag"
	"fluidfaas/internal/mig"
)

// Module is the analog of FluidFaaS.Module: the thin wrapper developers
// put around a DNN model. Implementations supply the profile the
// invoker's pipeline construction consumes.
type Module interface {
	// Name identifies the component.
	Name() string
	// MemGB is the component's GPU memory footprint.
	MemGB() float64
	// OutMB is the component's output tensor size.
	OutMB() float64
	// ExecOn returns the inference time on a slice profile, and whether
	// the component fits it.
	ExecOn(t mig.SliceType) (float64, bool)
}

// StaticModule is a Module backed by explicit profile data — the common
// case for profiled DNN models.
type StaticModule struct {
	ModuleName string
	Mem        float64
	Out        float64
	Exec       map[mig.SliceType]float64
}

// Name implements Module.
func (m *StaticModule) Name() string { return m.ModuleName }

// MemGB implements Module.
func (m *StaticModule) MemGB() float64 { return m.Mem }

// OutMB implements Module.
func (m *StaticModule) OutMB() float64 { return m.Out }

// ExecOn implements Module.
func (m *StaticModule) ExecOn(t mig.SliceType) (float64, bool) {
	d, ok := m.Exec[t]
	return d, ok
}

// Handle is a dataflow value returned by Reg, used to wire components
// together (the x1, x2, ... of Fig. 7). The zero Handle is the function
// input.
type Handle struct {
	node dag.NodeID
	set  bool
}

// Input is the function's external input (the event payload).
var Input = Handle{}

// Builder collects component registrations during DefDAG.
type Builder struct {
	d *dag.DAG
}

// Reg registers a component and its inputs in the FFS DAG and returns a
// handle to its output — the analog of FluidFaaS.Module.reg.
func (b *Builder) Reg(m Module, inputs ...Handle) Handle {
	exec := make(map[mig.SliceType]float64)
	for _, t := range mig.SliceTypes {
		if d, ok := m.ExecOn(t); ok {
			exec[t] = d
		}
	}
	id := b.d.AddNode(dag.Node{
		Name:  m.Name(),
		MemGB: m.MemGB(),
		OutMB: m.OutMB(),
		Exec:  exec,
	})
	for _, in := range inputs {
		if in.set {
			b.d.AddEdge(in.node, id)
		}
	}
	return Handle{node: id, set: true}
}

// Function is what a developer writes: a name and the DAG definition.
// It is the Go analog of subclassing FFaaS and overriding defDAG.
type Function interface {
	Name() string
	DefDAG(b *Builder)
}

// BuildDAG runs the function in BUILDDAG mode and returns its validated
// FFS DAG.
func BuildDAG(fn Function) (*dag.DAG, error) {
	b := &Builder{d: dag.New()}
	fn.DefDAG(b)
	if err := b.d.Validate(); err != nil {
		return nil, fmt.Errorf("ffaas: %s: %w", fn.Name(), err)
	}
	return b.d, nil
}

// ComponentProfile is one row of the profiling output: the per-slice-type
// execution times and memory of one component.
type ComponentProfile struct {
	Node  dag.NodeID
	Name  string
	MemGB float64
	Exec  map[mig.SliceType]float64
}

// Profile runs the function in BUILDDAG mode and returns the per-node
// performance profiles the invoker's pipeline construction consumes
// (Fig. 6a: "profiles").
func Profile(fn Function) (*dag.DAG, []ComponentProfile, error) {
	d, err := BuildDAG(fn)
	if err != nil {
		return nil, nil, err
	}
	profs := make([]ComponentProfile, d.Len())
	for i := 0; i < d.Len(); i++ {
		n := d.Node(dag.NodeID(i))
		exec := make(map[mig.SliceType]float64, len(n.Exec))
		for k, v := range n.Exec {
			exec[k] = v
		}
		profs[i] = ComponentProfile{
			Node:  dag.NodeID(i),
			Name:  n.Name,
			MemGB: n.MemGB,
			Exec:  exec,
		}
	}
	return d, profs, nil
}
