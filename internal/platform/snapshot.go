package platform

// Snapshot is a deterministic, JSON-marshalable view of the platform's
// live state: per-slice occupancy, per-function deployment and
// keep-alive state, and the run counters. It backs the introspection
// server's /state endpoint; building one reads platform state and never
// mutates it. Slices appear in topology order and functions in ID
// order, so the same platform state marshals byte-identically.
type Snapshot struct {
	Time      float64         `json:"time"`
	Slices    []SliceState    `json:"slices"`
	Functions []FunctionState `json:"functions"`
	HostPools []HostPoolState `json:"hostPools"`
	Counters  Counters        `json:"counters"`
}

// HostPoolState is one node's host-memory pool occupancy.
type HostPoolState struct {
	Node       int     `json:"node"`
	CapacityGB float64 `json:"capacityGB"`
	UsedGB     float64 `json:"usedGB"`
	Occupancy  float64 `json:"occupancy"`
	// Models lists the held model copies, sorted. With the swap tier off
	// these are the copies backing live time-sharing bindings.
	Models []string `json:"models,omitempty"`
	Parked int      `json:"parked,omitempty"`
}

// SliceState is one MIG slice's occupancy.
type SliceState struct {
	ID      string `json:"id"`
	Node    int    `json:"node"`
	Type    string `json:"type"`
	Owner   string `json:"owner,omitempty"`
	Active  bool   `json:"active"`
	Healthy bool   `json:"healthy"`
	// Pool is set for slices in an invoker's time-sharing pool.
	Pool *PoolState `json:"pool,omitempty"`
}

// PoolState is the time-sharing view of a pool slice.
type PoolState struct {
	// Resident names the function loaded in MIG memory ("" = none).
	Resident string `json:"resident,omitempty"`
	// Bindings lists the functions bound to the slice, sorted.
	Bindings []string `json:"bindings"`
	Queued   int      `json:"queued"`
	Busy     bool     `json:"busy"`
}

// FunctionState is one registered function's deployment state.
type FunctionState struct {
	Name string  `json:"name"`
	SLO  float64 `json:"slo"`
	// KeepAlive is the function's time-sharing keep-alive state
	// ("cold" when it has no binding at all).
	KeepAlive string `json:"keepAlive"`
	Pending   int    `json:"pending"`
	// TSOutstanding counts requests admitted to the time-sharing
	// binding and not yet finalised.
	TSOutstanding int             `json:"tsOutstanding,omitempty"`
	Instances     []InstanceState `json:"instances"`
}

// InstanceState is one exclusive-hot instance.
type InstanceState struct {
	ID          string   `json:"id"`
	Slices      []string `json:"slices"`
	Pipelined   bool     `json:"pipelined"`
	Outstanding int      `json:"outstanding"`
	Capacity    int      `json:"capacity"`
	Retiring    bool     `json:"retiring,omitempty"`
}

// Counters are the run-level totals the accessor methods expose,
// gathered for one JSON document.
type Counters struct {
	Launched   int `json:"launched"`
	Evicted    int `json:"evicted"`
	Migrated   int `json:"migrated"`
	Faults     int `json:"faults"`
	Recoveries int `json:"recoveries"`
	Retries    int `json:"retries"`
	Rejected   int `json:"rejected"`
	SwapIns    int `json:"swapIns,omitempty"`
	SwapOuts   int `json:"swapOuts,omitempty"`
}

// Snapshot captures the platform's current state.
func (p *Platform) Snapshot() Snapshot {
	s := Snapshot{
		Time: p.eng.Now(),
		Counters: Counters{
			Launched: p.Launched(), Evicted: p.Evictions(), Migrated: p.Migrations(),
			Faults: p.FaultsInjected(), Recoveries: p.recoveries, Retries: p.Retries(),
			Rejected: p.Rejected(), SwapIns: p.SwapIns(), SwapOuts: p.SwapOuts(),
		},
	}

	// Pool views, keyed by slice ID.
	pools := map[string]*PoolState{}
	for _, inv := range p.inv {
		for _, ss := range inv.shared {
			ps := &PoolState{Queued: ss.queue.Len(), Busy: ss.busy()}
			if ss.resident != nil {
				ps.Resident = ss.resident.fn.spec.Name
			}
			for _, b := range ss.bindings {
				ps.Bindings = append(ps.Bindings, b.fn.spec.Name)
			}
			pools[ss.slice.ID()] = ps
		}
	}

	for _, node := range p.cl.Nodes {
		for _, g := range node.GPUs {
			for _, sl := range g.Slices {
				s.Slices = append(s.Slices, SliceState{
					ID: sl.ID(), Node: node.ID, Type: sl.Type.String(),
					Owner: sl.Owner, Active: sl.Active(), Healthy: sl.Healthy(),
					Pool: pools[sl.ID()],
				})
			}
		}
	}

	for _, node := range p.cl.Nodes {
		pool := node.Pool()
		s.HostPools = append(s.HostPools, HostPoolState{
			Node: node.ID, CapacityGB: pool.CapacityGB(), UsedGB: pool.UsedGB(),
			Occupancy: pool.Occupancy(), Models: pool.Models(), Parked: pool.ParkedCount(),
		})
	}

	for _, fn := range p.funcs {
		fs := FunctionState{
			Name: fn.spec.Name, SLO: fn.spec.SLO,
			KeepAlive: "cold", Pending: fn.pending.Len(),
			Instances: []InstanceState{},
		}
		if fn.ts != nil {
			fs.KeepAlive = fn.ts.state.State().String()
			fs.TSOutstanding = fn.ts.outstanding
		} else if len(fn.instances) > 0 {
			fs.KeepAlive = "exclusive-hot"
		}
		for _, inst := range fn.instances {
			is := InstanceState{
				ID: inst.id, Pipelined: inst.Pipelined(),
				Outstanding: len(inst.inflight), Capacity: inst.capacity,
				Retiring: inst.retiring,
			}
			for _, sl := range inst.slices {
				is.Slices = append(is.Slices, sl.ID())
			}
			fs.Instances = append(fs.Instances, is)
		}
		s.Functions = append(s.Functions, fs)
	}
	return s
}
