package pipeline

import (
	"errors"
	"sort"

	"fluidfaas/internal/dag"
	"fluidfaas/internal/mig"
)

// ErrNoFit reports that no partition in the ranked list can be supported
// by the available slices (within the SLO, when one is given).
var ErrNoFit = errors.New("pipeline: no partition fits the available slices")

// Construct runs the invoker's launch procedure of §5.2.2: walk the
// CV-ranked partitions in order and deploy the first one the available
// slices can support. For each partition, stages are bound best-fit:
// the most memory-hungry stage first, each to the smallest remaining
// slice that fits — conserving large slices for functions that need
// them. When slo > 0, a candidate whose unloaded latency exceeds the SLO
// is rejected and the walk continues.
//
// It returns the plan and, aligned with plan.Stages, the indices into
// avail of the slices each stage uses.
func Construct(d *dag.DAG, parts []dag.Partition, avail []mig.SliceType, slo float64) (Plan, []int, error) {
	plan, idx, _, err := ConstructRanked(d, parts, avail, slo)
	return plan, idx, err
}

// ConstructRanked is Construct plus the index into parts of the chosen
// partition. The rank lets callers comparing plans built from different
// free-slice views (e.g. across nodes) preserve the §5.2.2 walk order:
// a plan from an earlier-ranked partition always beats one from a
// later-ranked partition, regardless of how the slices bound.
func ConstructRanked(d *dag.DAG, parts []dag.Partition, avail []mig.SliceType, slo float64) (Plan, []int, int, error) {
	for rank, part := range parts {
		idx, ok := assign(d, part, avail)
		if !ok {
			continue
		}
		types := make([]mig.SliceType, len(idx))
		for i, ai := range idx {
			types[i] = avail[ai]
		}
		plan, err := BuildPlan(d, part, types)
		if err != nil {
			continue
		}
		if slo > 0 && plan.Latency > slo {
			continue
		}
		return plan, idx, rank, nil
	}
	return Plan{}, nil, -1, ErrNoFit
}

// needOrder returns the stage indices of part in binding order: most
// memory-hungry first, stable on ties. Both assign and the planner's
// cached replay (PlanResult.BindIndices) use this order, which is what
// makes a cache hit's slice-index binding reproduce the walk's exactly.
func needOrder(d *dag.DAG, part dag.Partition) []int {
	type stageNeed struct {
		stage int
		mem   float64
	}
	needs := make([]stageNeed, len(part.Stages))
	for i, st := range part.Stages {
		needs[i] = stageNeed{stage: i, mem: st.MemGB(d)}
	}
	sort.SliceStable(needs, func(i, j int) bool { return needs[i].mem > needs[j].mem })
	order := make([]int, len(needs))
	for i, n := range needs {
		order[i] = n.stage
	}
	return order
}

// assign binds stages to available slices best-fit-decreasing; it
// returns, per stage, the index into avail, or ok=false when some stage
// cannot be placed. Among fitting slices it picks the smallest by
// compute (GPCs, then memory — mig.LessCompute), ties going to the
// first index in avail order.
func assign(d *dag.DAG, part dag.Partition, avail []mig.SliceType) ([]int, bool) {
	used := make([]bool, len(avail))
	out := make([]int, len(part.Stages))
	for _, stage := range needOrder(d, part) {
		mem := part.Stages[stage].MemGB(d)
		best := -1
		for ai, t := range avail {
			if used[ai] || float64(t.MemGB()) < mem {
				continue
			}
			if _, ok := part.Stages[stage].ExecOn(d, t); !ok {
				continue
			}
			if best == -1 || mig.LessCompute(t, avail[best]) {
				best = ai
			}
		}
		if best == -1 {
			return nil, false
		}
		used[best] = true
		out[stage] = best
	}
	return out, true
}
