// Package pipeline turns a ranked DAG partition into a deployable plan:
// stages mapped to MIG slice profiles, with latency, bottleneck and
// transfer analysis, and the first-fit construction procedure the FFS
// invoker runs at instance launch (§5.2.2).
package pipeline

import (
	"fmt"
	"strings"

	"fluidfaas/internal/dag"
	"fluidfaas/internal/mig"
)

// StagePlan is one pipeline stage bound to a slice profile.
type StagePlan struct {
	Stage dag.Stage
	// SliceType the stage runs on.
	SliceType mig.SliceType
	// ExecTime is the stage's service time on its slice.
	ExecTime float64
	// TransferOut is the host shared-memory hop cost to the next stage
	// (zero for the last stage).
	TransferOut float64
	// MemGB is the memory the stage needs loaded on its slice.
	MemGB float64
}

// Plan is a fully analysed pipeline configuration for one instance.
type Plan struct {
	Stages []StagePlan
	// Latency is the unloaded end-to-end service latency: stage times
	// plus inter-stage transfers plus intra-stage data movement.
	Latency float64
	// Bottleneck is the largest stage service time; the instance's
	// sustainable throughput is 1/Bottleneck.
	Bottleneck float64
	// CV carries the partition's balance score.
	CV float64
}

// Pipelined reports whether the plan has more than one stage.
func (p Plan) Pipelined() bool { return len(p.Stages) > 1 }

// Throughput returns the plan's sustainable requests per second.
func (p Plan) Throughput() float64 {
	if p.Bottleneck <= 0 {
		return 0
	}
	return 1 / p.Bottleneck
}

// GPCs returns the total compute the plan occupies.
func (p Plan) GPCs() int {
	t := 0
	for _, s := range p.Stages {
		t += s.SliceType.GPCs()
	}
	return t
}

// String renders the plan like "[2g.20gb:0.45s -> 1g.10gb:0.15s]".
func (p Plan) String() string {
	parts := make([]string, len(p.Stages))
	for i, s := range p.Stages {
		parts[i] = fmt.Sprintf("%s:%.3fs", s.SliceType, s.ExecTime)
	}
	return "[" + strings.Join(parts, " -> ") + "]"
}

// boundaryOutMB returns the transfer size from a stage: the largest
// output among the stage's nodes with an edge into a later stage.
func boundaryOutMB(d *dag.DAG, stage dag.Stage, inStage map[dag.NodeID]bool) float64 {
	out := 0.0
	for _, n := range stage.Nodes {
		for _, succ := range d.Succ(n) {
			if !inStage[succ] {
				if mb := d.Node(n).OutMB; mb > out {
					out = mb
				}
			}
		}
	}
	return out
}

// intraCost returns the same-slice data movement cost of a stage: one
// IntraTransfer per edge internal to the stage.
func intraCost(d *dag.DAG, stage dag.Stage, inStage map[dag.NodeID]bool) float64 {
	cost := 0.0
	for _, n := range stage.Nodes {
		for _, succ := range d.Succ(n) {
			if inStage[succ] {
				cost += dag.IntraTransfer
			}
		}
	}
	return cost
}

// BuildPlan binds each stage of the partition to the corresponding slice
// profile in types (len(types) must equal the stage count) and analyses
// it. It fails when a stage's memory exceeds its slice or a component
// cannot run on it.
func BuildPlan(d *dag.DAG, part dag.Partition, types []mig.SliceType) (Plan, error) {
	if len(types) != len(part.Stages) {
		return Plan{}, fmt.Errorf("pipeline: %d slice types for %d stages",
			len(types), len(part.Stages))
	}
	plan := Plan{CV: part.CV}
	for i, st := range part.Stages {
		mem := st.MemGB(d)
		if mem > float64(types[i].MemGB()) {
			return Plan{}, fmt.Errorf("pipeline: stage %d needs %.1f GB, %s has %d GB",
				i, mem, types[i], types[i].MemGB())
		}
		if len(st.Nodes) == d.Len() && types[i].GPCs() < d.MonoMinGPCs {
			return Plan{}, fmt.Errorf("pipeline: monolithic stage needs %d GPCs, %s has %d",
				d.MonoMinGPCs, types[i], types[i].GPCs())
		}
		exec, ok := st.ExecOn(d, types[i])
		if !ok {
			return Plan{}, fmt.Errorf("pipeline: stage %d cannot run on %s", i, types[i])
		}
		inStage := make(map[dag.NodeID]bool, len(st.Nodes))
		for _, n := range st.Nodes {
			inStage[n] = true
		}
		exec += intraCost(d, st, inStage)
		sp := StagePlan{Stage: st, SliceType: types[i], ExecTime: exec, MemGB: mem}
		if i < len(part.Stages)-1 {
			sp.TransferOut = d.HopTime(boundaryOutMB(d, st, inStage))
		}
		plan.Stages = append(plan.Stages, sp)
		plan.Latency += sp.ExecTime + sp.TransferOut
		if sp.ExecTime > plan.Bottleneck {
			plan.Bottleneck = sp.ExecTime
		}
	}
	return plan, nil
}

// Monolithic returns the single-stage plan of the whole DAG on one slice
// profile — the baseline (non-pipeline) execution model.
func Monolithic(d *dag.DAG, t mig.SliceType) (Plan, error) {
	part, err := d.MonolithicPartition()
	if err != nil {
		return Plan{}, err
	}
	return BuildPlan(d, part, []mig.SliceType{t})
}
