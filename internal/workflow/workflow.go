// Package workflow implements the function-per-model execution style
// the paper's design argues against (§5): each DNN model of an
// application becomes its own serverless function, chained through the
// controller. Every hop pays an inter-function invocation overhead and
// moves tensors through storage, and every function instance duplicates
// the GPU runtime in its own container — the costs that push "recent
// studies [to] advocate putting the entire workflow of an ML
// application as a serverless function".
//
// The driver reuses the full platform: one FunctionSpec per model, with
// chained invocation wired through the OnComplete hook.
package workflow

import (
	"fmt"
	"slices"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dag"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/metrics"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/platform"
	"fluidfaas/internal/scheduler"
	"fluidfaas/internal/sim"
	"fluidfaas/internal/trace"
)

// Inter-function costs.
const (
	// RuntimeDupGB is the GPU runtime (CUDA context, framework) each
	// separate function container duplicates. StreamBox reports over
	// 95% memory savings from avoiding this duplication [52].
	RuntimeDupGB = 1.5
	// HopBase is the fixed controller/queueing cost of invoking the
	// next function in the chain.
	HopBase = 0.040
	// HopBandwidthMBps is the effective bandwidth of passing the
	// intermediate tensor through storage between functions.
	HopBandwidthMBps = 500.0
)

// hopCost returns the chain-hop latency for a tensor of outMB.
func hopCost(outMB float64) float64 {
	return HopBase + outMB/HopBandwidthMBps
}

// Result summarises a chained run against the end-to-end SLO.
type Result struct {
	Total      int
	Completed  int
	SLOHit     float64
	Throughput float64
	// MeanLatency is the mean end-to-end chain latency.
	MeanLatency float64
	// HopOverhead is the per-request chain overhead (sum of hops).
	HopOverhead float64
	// MemoryGB is the summed per-function deployment footprint,
	// including the duplicated runtime; compare against the
	// whole-workflow function's footprint.
	MemoryGB float64
}

// chainState tracks one logical request through the chain.
type chainState struct {
	start     float64
	nextStage int
}

// RunChained executes app at variant as a chain of per-model functions
// on a fresh cluster, replaying tr (function indices in tr are ignored;
// every request enters at stage 0). The end-to-end SLO is the
// whole-application SLO at sloScale.
func RunChained(app dnn.App, variant dnn.Variant, tr *trace.Trace,
	spec cluster.Spec, pol scheduler.Policy, seed int64, sloScale float64) Result {

	appSLO, ok := app.SLOLatency(variant, sloScale)
	if !ok {
		panic(fmt.Sprintf("workflow: no SLO for %s/%s", app.Name, variant))
	}

	// One FunctionSpec per model, with the duplicated runtime added to
	// each footprint. Per-function SLOs apportion the end-to-end budget
	// by execution share (for routing and admission only; hit rates are
	// measured end to end).
	var specs []platform.FunctionSpec
	totalExec := 0.0
	execs := make([]float64, len(app.Models))
	for i, m := range app.Models {
		if et, ok := m.ExecTime(variant, mig.Slice4g); ok {
			execs[i] = et
			totalExec += et
		}
	}
	memoryGB := 0.0
	for i, m := range app.Models {
		d := dag.New()
		d.AddNode(dag.Node{
			Name:  m.String(),
			MemGB: m.MemGB(variant) + RuntimeDupGB,
			OutMB: m.OutMB(variant),
			Exec:  shiftedProfile(m, variant),
		})
		parts, err := d.EnumeratePartitions(mig.Slice7g)
		if err != nil {
			panic(err)
		}
		share := 1.0 / float64(len(app.Models))
		if totalExec > 0 {
			share = execs[i] / totalExec
		}
		specs = append(specs, platform.FunctionSpec{
			ID:   i,
			Name: fmt.Sprintf("%s/%s", app.Name, m),
			DAG:  d, Parts: parts,
			SLO: appSLO * share,
		})
		memoryGB += m.MemGB(variant) + RuntimeDupGB
	}

	cl := cluster.New(spec)
	chains := make(map[int]*chainState, len(tr.Requests))
	res := Result{}
	var latencySum, hopSum float64

	var p *platform.Platform
	p = platform.New(cl, specs, platform.Options{
		Policy: pol,
		Seed:   seed,
		OnComplete: func(rec metrics.RequestRecord) {
			cs := chains[rec.ID]
			if cs == nil {
				return
			}
			now := rec.Completion
			if rec.Dropped {
				// The chain dies: an end-to-end miss.
				delete(chains, rec.ID)
				return
			}
			cs.nextStage++
			if cs.nextStage < len(app.Models) {
				hop := hopCost(app.Models[cs.nextStage-1].OutMB(variant))
				hopSum += hop
				id := rec.ID
				p.Engine().After(hop, func() {
					p.InjectRequest(chains[id].nextStage, id)
				})
				return
			}
			// Chain complete.
			res.Completed++
			lat := now - cs.start
			latencySum += lat
			if lat <= appSLO {
				res.SLOHit++ // counted; normalised below
			}
			delete(chains, rec.ID)
		},
	})

	// Chain arrivals feed the engine as one lazy stream, over a
	// stable-sorted copy when the trace is not sorted by arrival; either
	// way they fire in the order one At per request would give them.
	reqs := tr.Requests
	if !slices.IsSortedFunc(reqs, trace.ByArrival) {
		reqs = slices.Clone(reqs)
		slices.SortStableFunc(reqs, trace.ByArrival)
	}
	p.Engine().Stream(len(reqs),
		func(i int) sim.Time { return reqs[i].Arrival },
		func(i int) {
			chains[reqs[i].ID] = &chainState{start: reqs[i].Arrival}
			p.InjectRequest(0, reqs[i].ID)
		})
	empty := &trace.Trace{Duration: tr.Duration, NumFuncs: len(specs)}
	p.Run(empty, 60)

	res.Total = len(tr.Requests)
	res.MemoryGB = memoryGB
	if res.Total > 0 {
		res.SLOHit /= float64(res.Total)
	}
	if res.Completed > 0 {
		res.MeanLatency = latencySum / float64(res.Completed)
		res.HopOverhead = hopSum / float64(res.Completed)
	}
	if tr.Duration > 0 {
		res.Throughput = float64(res.Completed) / tr.Duration
	}
	return res
}

// shiftedProfile returns the model's per-slice execution map for the
// chained deployment (same kernels, own container).
func shiftedProfile(m dnn.ModelID, v dnn.Variant) map[mig.SliceType]float64 {
	out := make(map[mig.SliceType]float64)
	for _, t := range mig.SliceTypes {
		// The container's footprint includes the duplicated runtime, so
		// a slice must hold model + runtime.
		if m.MemGB(v)+RuntimeDupGB > float64(t.MemGB()) {
			continue
		}
		if et, ok := m.ExecTime(v, t); ok {
			out[t] = et
		}
	}
	return out
}
