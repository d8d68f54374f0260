// Package scheduler implements the instance-placement policies the
// evaluation compares: FluidFaaS (CV-ranked pipeline construction over
// fragmented slices), ESG (monolithic placement by A*-search with
// dual-blade pruning), and INFless+MIG (monolithic first-fit placement).
//
// Policies are pure decision procedures over free-slice views, so the
// platform can replay them deterministically inside the simulation.
package scheduler

import (
	"errors"

	"fluidfaas/internal/dag"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
)

// Req asks for one new instance of a function.
type Req struct {
	// Func is the function index (for reporting).
	Func int
	// DAG is the function's FFS DAG with profiles.
	DAG *dag.DAG
	// Parts is the function's CV-ranked partition list (offline step).
	Parts []dag.Partition
	// SLO is the function's latency budget; placements whose unloaded
	// latency exceeds it are rejected.
	SLO float64
	// Planner memoizes the construction procedure for this function
	// across calls. FluidFaaS probes nodes through it and the baselines
	// read its monolithic table; when nil, each PlaceBatch call builds a
	// fresh planner or table, so the placements are the same and only
	// the cache is lost between calls. FluidFaaS also builds a fresh
	// planner when this one was made for another SLO.
	Planner *pipeline.Planner
}

// NodeFree is one node's free slices.
type NodeFree struct {
	Node int
	Free []mig.SliceType
	// Counts is Free's multiset, pipeline.CountsOf(Free), for a caller
	// that already keeps it. The zero value means "tally Free": a
	// non-empty Free never has zero counts.
	Counts pipeline.Counts
}

// Placement deploys one request: the plan plus, per stage, the index
// into the node's Free list of the slice it uses.
type Placement struct {
	Req      int // index into the batch
	Node     int
	Plan     pipeline.Plan
	SliceIdx []int
}

// ErrUnplaced reports that no node can host the request.
var ErrUnplaced = errors.New("scheduler: request cannot be placed")

// Policy is an instance-placement strategy.
type Policy interface {
	// Name identifies the policy ("fluidfaas", "esg", "infless").
	Name() string
	// Pipelines reports whether the policy may split functions into
	// pipeline stages.
	Pipelines() bool
	// TimeSharing reports whether the policy uses hotness-aware
	// eviction-based time sharing of slices.
	TimeSharing() bool
	// Migration reports whether pipeline instances migrate to large
	// slices when they free up.
	Migration() bool
	// PlaceBatch assigns as many requests as possible to free slices.
	// Nodes' Free lists are consumed left to right across the returned
	// placements; a request absent from the result is unplaceable right
	// now.
	PlaceBatch(reqs []Req, nodes []NodeFree) []Placement
}

// monoTable returns the request's per-slice-type monolithic table, which
// the baselines read instead of building plans per free slice. A request
// without a Planner gets a table for this call only.
func monoTable(req Req) *pipeline.MonoTable {
	if req.Planner != nil {
		return req.Planner.Mono()
	}
	return pipeline.NewMonoTable(req.DAG)
}
