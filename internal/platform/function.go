package platform

import (
	"math/bits"
	"slices"
	"sort"

	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
	"fluidfaas/internal/sim"
)

// Function is the platform-side state of one registered function.
type Function struct {
	spec FunctionSpec

	// instances are the exclusive-hot deployments (monolithic or
	// pipelined), kept sorted by unloaded latency for the
	// heterogeneity-aware routing of §5.3.
	instances []*Instance
	// open has bit i set exactly when instances[i].hasCapacity(): the
	// instances routing, admission estimates and hedging may pick.
	open openSet
	// ts is the function's single time-sharing binding (§5.3: "each
	// serverless function is restricted to a maximum of one instance in
	// the time sharing state"); nil when cold.
	ts *tsBinding
	// pending holds requests no instance could admit, most urgent
	// first (byDeadline).
	pending sim.Queue[*request]

	// planner memoizes the §5.2.2 construction procedure for this
	// function; every construction goes through it, and its Mono() table
	// answers every monolithic question (plan, latency, can-run) per
	// slice type.
	planner *pipeline.Planner

	// fastestMono is the lowest monolithic latency over all slice types
	// (+Inf when the function runs monolithically nowhere).
	fastestMono float64
	// memGB is the monolithic footprint (for loads and shared slices).
	memGB float64

	// lastNodeUse tracks when the function last ran on each node, to
	// decide warm vs cold instance loads.
	lastNodeUse map[int]float64

	rrNext int // round-robin cursor for the routing ablation

	// admits are the function's admission-record bodies (provenance
	// on only).
	admits admitBodies

	// served counts completions that went through Platform.complete
	// (one per hedged pair); hedges counts hedged duplicates launched.
	// Their ratio is the per-function hedge rate HedgeBudget
	// bounds.
	served int
	hedges int

	// rejectDemand counts admission rejections since the last scale-up
	// pass. Rejected requests never reach fn.pending, but they are still
	// demand — without this, a cold function whose whole first wave
	// fast-fails would never trigger scale-up and reject forever.
	rejectDemand int

	// loadSpan and execSpan name the function's load and exec spans in
	// the trace, built once rather than per span.
	loadSpan, execSpan string
}

func newFunction(spec FunctionSpec) *Function {
	fn := &Function{
		spec:        spec,
		planner:     pipeline.NewPlanner(spec.DAG, spec.Parts, spec.SLO),
		memGB:       spec.DAG.TotalMemGB(),
		lastNodeUse: make(map[int]float64),
		loadSpan:    "load " + spec.Name,
		execSpan:    "exec " + spec.Name,
	}
	fn.fastestMono = fn.planner.Mono().Fastest()
	return fn
}

// mono returns the function's monolithic deployment on slice type t.
func (fn *Function) mono(t mig.SliceType) *pipeline.MonoEntry {
	return &fn.planner.Mono()[t]
}

// sortInstances keeps the routing order: lowest unloaded latency first,
// then instance ID for determinism.
func (fn *Function) sortInstances() {
	sort.SliceStable(fn.instances, func(i, j int) bool {
		if fn.instances[i].plan.Latency != fn.instances[j].plan.Latency {
			return fn.instances[i].plan.Latency < fn.instances[j].plan.Latency
		}
		return fn.instances[i].id < fn.instances[j].id
	})
	fn.reindex()
}

// removeInstance unlinks inst from the function.
func (fn *Function) removeInstance(inst *Instance) {
	if inst.pos < 0 {
		return
	}
	fn.instances = slices.Delete(fn.instances, inst.pos, inst.pos+1)
	inst.pos = -1
	fn.reindex()
}

// reindex renumbers every instance's position and rebuilds the open
// set from scratch. Positions move only on launch and removal, which
// are rare next to admissions and completions.
func (fn *Function) reindex() {
	fn.open = fn.open[:0]
	for len(fn.open)*64 < len(fn.instances) {
		fn.open = append(fn.open, 0)
	}
	for i, inst := range fn.instances {
		inst.pos = i
		fn.markOpen(inst)
	}
}

// markOpen re-derives inst's open bit after its in-flight count or
// retirement changed. An instance no longer linked to the function has
// no bit.
func (fn *Function) markOpen(inst *Instance) {
	if inst.pos < 0 {
		return
	}
	w, b := inst.pos/64, uint64(1)<<(inst.pos%64)
	if inst.hasCapacity() {
		fn.open[w] |= b
	} else {
		fn.open[w] &^= b
	}
}

// openSet is a bitset over instance positions.
type openSet []uint64

// next returns the lowest set position at or after i, or -1.
func (s openSet) next(i int) int {
	w := i / 64
	if w >= len(s) {
		return -1
	}
	word := s[w] >> (i % 64) << (i % 64)
	for {
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
		if w++; w == len(s) {
			return -1
		}
		word = s[w]
	}
}

// prev returns the highest set position at or before i, or -1.
func (s openSet) prev(i int) int {
	if i < 0 {
		return -1
	}
	w := i / 64
	word := s[w] << (63 - i%64) >> (63 - i%64)
	for {
		if word != 0 {
			return w*64 + 63 - bits.LeadingZeros64(word)
		}
		if w--; w < 0 {
			return -1
		}
		word = s[w]
	}
}

// byDeadline orders the pending overflow EDF: the paper routes by
// deadline minus estimated execution and load, which for one function's
// uniform SLO is deadline order, and a fresh arrival's is the latest.
func byDeadline(a, b *request) bool { return a.deadline < b.deadline }
