package ffaas

import (
	"fmt"
	"sync"

	"fluidfaas/internal/dag"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
)

// Result reports the virtual-time breakdown of one request through an
// instance (the components of Fig. 14's latency breakdown).
type Result struct {
	// Latency is the end-to-end virtual latency from arrival to result.
	Latency float64
	// QueueTime is time spent waiting for stage slices.
	QueueTime float64
	// ExecTime is time spent executing components.
	ExecTime float64
	// TransferTime is time spent in host shared-memory hops.
	TransferTime float64
	// LoadTime is reload penalty paid after evictions.
	LoadTime float64
	// StageTimes lists per-stage service times.
	StageTimes []float64
}

// stageProc is one stage process: the analog of the per-MIG process of
// Listing 1, serving its FIFO input queue on one slice. Its costs are the
// invoker's StagePlan for the stage.
type stageProc struct {
	plan        pipeline.StagePlan
	load        float64 // reload cost after an eviction
	availableAt float64 // virtual time the slice frees up
	loaded      bool    // false after an eviction (Listing 1's self.eviction)
	served      uint64
	busy        float64
}

// Instance is a running FluidFaaS function: RUN-mode initialisation has
// imported the DAG and the configuration layer, and one stage process
// serves each assigned MIG slice.
type Instance struct {
	name string

	mu     sync.Mutex
	stages []stageProc
	closed bool
}

// LoadTimeFunc models how long (re)loading memGB of model state onto a
// slice takes.
type LoadTimeFunc func(memGB float64) float64

// LaunchOptions tune instance startup.
type LaunchOptions struct {
	// LoadTime models reload cost after eviction; Launch calls it once
	// per stage. nil means reloads are free (exclusive-hot behaviour).
	LoadTime LoadTimeFunc
	// Preloaded marks models as already resident (no first-request load).
	Preloaded bool
}

// Launch runs the function in RUN mode under the given configuration
// layer: it validates the stage assignment against the DAG and sets up
// the stage processes (Listing 1's _start_processes), each costed by
// pipeline.BuildPlan exactly as the invoker costs it.
func Launch(fn Function, cfg Config, opts LaunchOptions) (*Instance, error) {
	d, err := BuildDAG(fn)
	if err != nil {
		return nil, err
	}
	if len(cfg.Stages) == 0 {
		return nil, fmt.Errorf("ffaas: %s: empty configuration layer", fn.Name())
	}
	// Stage coverage: every node exactly once, in topological order.
	seen := make(map[dag.NodeID]int)
	part := dag.Partition{Stages: make([]dag.Stage, len(cfg.Stages))}
	types := make([]mig.SliceType, len(cfg.Stages))
	for si, sc := range cfg.Stages {
		if len(sc.Nodes) == 0 {
			return nil, fmt.Errorf("ffaas: %s: stage %d has no nodes", fn.Name(), si)
		}
		for _, n := range sc.Nodes {
			if int(n) < 0 || int(n) >= d.Len() {
				return nil, fmt.Errorf("ffaas: %s: stage %d references unknown node %d", fn.Name(), si, n)
			}
			if _, dup := seen[n]; dup {
				return nil, fmt.Errorf("ffaas: %s: node %d assigned twice", fn.Name(), n)
			}
			seen[n] = si
		}
		part.Stages[si] = dag.Stage{Nodes: sc.Nodes}
		types[si] = sc.Slice
	}
	if len(seen) != d.Len() {
		return nil, fmt.Errorf("ffaas: %s: %d of %d nodes assigned", fn.Name(), len(seen), d.Len())
	}
	for u := 0; u < d.Len(); u++ {
		for _, v := range d.Succ(dag.NodeID(u)) {
			if seen[v] < seen[dag.NodeID(u)] {
				return nil, fmt.Errorf("ffaas: %s: edge %d->%d crosses stages backwards", fn.Name(), u, v)
			}
		}
	}
	plan, err := pipeline.BuildPlan(d, part, types)
	if err != nil {
		return nil, fmt.Errorf("ffaas: %s: %w", fn.Name(), err)
	}

	inst := &Instance{name: fn.Name()}
	for _, sp := range plan.Stages {
		s := stageProc{plan: sp, loaded: opts.Preloaded}
		if opts.LoadTime != nil {
			s.load = opts.LoadTime(sp.MemGB)
		}
		inst.stages = append(inst.stages, s)
	}
	return inst, nil
}

// Name returns the function name.
func (inst *Instance) Name() string { return inst.name }

// Stages returns the number of pipeline stages.
func (inst *Instance) Stages() int { return len(inst.stages) }

// Invoke submits a request arriving at the given virtual time and
// returns a channel delivering its Result. Requests pass every stage in
// Invoke order, so arrival times should be non-decreasing across calls
// for meaningful queueing. After Close the channel closes empty.
func (inst *Instance) Invoke(arrival float64) <-chan Result {
	done := make(chan Result, 1)
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.closed {
		close(done)
		return done
	}
	done <- inst.serve(arrival)
	return done
}

// serve runs one request through the FIFO tandem: at each stage it
// starts at max(arrival, the slice's previous departure), pays the reload
// if the stage is cold, and reaches the next stage one shared-memory hop
// after it departs. inst.mu must be held.
func (inst *Instance) serve(arrival float64) Result {
	res := Result{StageTimes: make([]float64, 0, len(inst.stages))}
	at := arrival
	for i := range inst.stages {
		s := &inst.stages[i]
		start := max(at, s.availableAt)
		res.QueueTime += start - at
		service := s.plan.ExecTime
		if !s.loaded {
			res.LoadTime += s.load
			service += s.load
			s.loaded = true
		}
		s.availableAt = start + service
		s.served++
		s.busy += service
		res.ExecTime += s.plan.ExecTime
		res.StageTimes = append(res.StageTimes, service)
		res.TransferTime += s.plan.TransferOut // zero after the last stage
		at = s.availableAt + s.plan.TransferOut
	}
	res.Latency = res.QueueTime + res.ExecTime + res.TransferTime + res.LoadTime
	return res
}

// InvokeWait submits a request and blocks for its Result.
func (inst *Instance) InvokeWait(arrival float64) Result {
	return <-inst.Invoke(arrival)
}

// EvictStage drops stage i's model from its slice (Listing 1's
// self.eviction): the next request the stage serves pays the reload.
func (inst *Instance) EvictStage(i int) {
	inst.mu.Lock()
	inst.stages[i].loaded = false
	inst.mu.Unlock()
}

// StageStats reports per-stage served counts and busy time.
func (inst *Instance) StageStats() (served []uint64, busy []float64) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	for _, s := range inst.stages {
		served = append(served, s.served)
		busy = append(busy, s.busy)
	}
	return served, busy
}

// Close terminates the stage processes (Listing 1's
// _terminate_processes); later Invokes deliver no result. It is
// idempotent.
func (inst *Instance) Close() {
	inst.mu.Lock()
	inst.closed = true
	inst.mu.Unlock()
}
