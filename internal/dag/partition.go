package dag

import (
	"fmt"
	"math"
	"sort"

	"fluidfaas/internal/mig"
)

// Stage is one pipeline stage: a consecutive run of segments that will
// execute together on a single MIG slice.
type Stage struct {
	Nodes []NodeID
}

// MemGB returns the stage's total memory footprint on its slice.
func (s Stage) MemGB(d *DAG) float64 {
	t := 0.0
	for _, id := range s.Nodes {
		t += d.Node(id).MemGB
	}
	return t
}

// ExecOn returns the stage's service time on a slice profile: the sum of
// its components' times (components of one stage run sequentially on the
// stage's slice; the worst-case path is charged for conditional
// branches). ok is false when any component cannot run on the profile.
func (s Stage) ExecOn(d *DAG, t mig.SliceType) (float64, bool) {
	sum := 0.0
	for _, id := range s.Nodes {
		dt, ok := d.Node(id).ExecOn(t)
		if !ok {
			return 0, false
		}
		sum += dt
	}
	return sum, true
}

// Partition is one way of splitting the function into pipeline stages.
type Partition struct {
	Stages []Stage
	// CV is the coefficient of variation of the stage execution times on
	// the reference profile (Eq. 1). Lower is better balanced.
	CV float64
}

// CV computes std(times)/mean(times) (population standard deviation,
// Eq. 1 of the paper). A single stage has CV 0; a zero mean returns 0.
func CV(times []float64) float64 {
	if len(times) == 0 {
		return 0
	}
	mean := 0.0
	for _, t := range times {
		mean += t
	}
	mean /= float64(len(times))
	if mean == 0 {
		return 0
	}
	varsum := 0.0
	for _, t := range times {
		d := t - mean
		varsum += d * d
	}
	std := math.Sqrt(varsum / float64(len(times)))
	return std / mean
}

// MaxSegments caps the segments EnumeratePartitions accepts: m segments
// yield 2^(m-1) partitions, so the cap bounds the enumeration at 32768.
// The built-in applications have at most 4 segments.
const MaxSegments = 16

// EnumeratePartitions returns every consecutive grouping of the DAG's
// segments into 1..len(segments) stages — the 2^(m-1) configurations of
// §5.2.2 — ranked by ascending CV of stage times on the reference
// profile ref (ties broken by fewer stages, then by first-cut position,
// for determinism). This is the offline step the invoker's ranked list
// comes from. It fails when the DAG has more than MaxSegments segments.
func (d *DAG) EnumeratePartitions(ref mig.SliceType) ([]Partition, error) {
	segs, err := d.Linearize()
	if err != nil {
		return nil, err
	}
	m := len(segs)
	if m > MaxSegments {
		return nil, fmt.Errorf("dag: %d segments exceed the partition enumeration cap of %d", m, MaxSegments)
	}
	var out []Partition
	// Each of the 2^(m-1) bitmasks chooses whether to cut after segment i.
	for mask := 0; mask < 1<<(m-1); mask++ {
		var stages []Stage
		cur := Stage{}
		for i, seg := range segs {
			cur.Nodes = append(cur.Nodes, seg.Nodes...)
			cutHere := i == m-1 || mask&(1<<i) != 0
			if cutHere {
				stages = append(stages, cur)
				cur = Stage{}
			}
		}
		times := make([]float64, len(stages))
		feasible := true
		for i, st := range stages {
			t, ok := st.ExecOn(d, ref)
			if !ok {
				feasible = false
				break
			}
			times[i] = t
		}
		if !feasible {
			continue
		}
		out = append(out, Partition{Stages: stages, CV: CV(times)})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].CV != out[j].CV {
			return out[i].CV < out[j].CV
		}
		return len(out[i].Stages) < len(out[j].Stages)
	})
	return out, nil
}

// MonolithicPartition returns the single-stage partition containing
// every node in topological order.
func (d *DAG) MonolithicPartition() (Partition, error) {
	order, err := d.TopoSort()
	if err != nil {
		return Partition{}, err
	}
	return Partition{Stages: []Stage{{Nodes: order}}, CV: 0}, nil
}
