package platform

import (
	"fmt"
	"math"

	"fluidfaas/internal/keepalive"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/overload"
)

// RejectReason is the typed cause of an admission-time rejection: the
// reason selects the per-reason counter and the provenance label; the
// human-readable detail rides alongside.
type RejectReason int

const (
	// RejectDeadline: the completion estimate already missed the deadline.
	RejectDeadline RejectReason = iota
	numRejectReasons
)

// String names the reason for metrics labels and decision records.
func (r RejectReason) String() string {
	if r == RejectDeadline {
		return "deadline-estimate"
	}
	return fmt.Sprintf("RejectReason(%d)", int(r))
}

// This file integrates SLO-aware admission (internal/overload) with the
// platform. It is a no-op when opts.Overload.Admission is off, keeping
// feature-off runs bit-for-bit identical.

// admissionReject decides whether rq is turned away at arrival by the
// SLO-aware completion estimate. Returns true when the request was
// rejected and recorded.
func (p *Platform) admissionReject(rq *request) bool {
	fn := rq.fn
	if !p.opts.Overload.Admission || fn.spec.SLO <= 0 {
		return false
	}
	est := p.completionEstimate(fn)
	if p.eng.Now()+est*overload.AdmissionSlack > rq.deadline {
		// Rejections are still demand: autoscaling must see them, or a
		// cold function whose whole first wave fast-fails never scales
		// up and rejects forever.
		fn.rejectDemand++
		p.kickScaleUp()
		p.reject(rq, RejectDeadline,
			fmt.Sprintf("estimated completion %.3fs past deadline", est), func() []decisions.KV {
				return []decisions.KV{
					kvF("estimate", est),
					kvF("slack", overload.AdmissionSlack),
					kvF("deadline", rq.deadline),
				}
			})
		return true
	}
	return false
}

// reject fast-fails a request at arrival: the record carries the
// rejection instant as its completion, so fast-fail latency is bounded
// (zero wait) and distinct from a timeout drop. inputs builds the Reject
// decision's inputs; it runs only while provenance is on.
func (p *Platform) reject(rq *request, why RejectReason, detail string, inputs func() []decisions.KV) {
	p.rejectReasons[why]++
	p.finishUnserved(EvReject, detail, transition{
		rq: rq,
		decision: func() decisions.Record {
			return decisions.Record{
				Kind: decisions.KindReject, Rule: why.String(), Outcome: detail,
				Inputs: inputs(),
			}
		},
	})
}

// RejectedByReason returns admission rejections keyed by typed reason.
func (p *Platform) RejectedByReason() map[string]int {
	out := make(map[string]int, numRejectReasons)
	for r := RejectReason(0); r < numRejectReasons; r++ {
		out[r.String()] = p.rejectReasons[r]
	}
	return out
}

// completionEstimate is the optimistic end-to-end estimate for a new
// request of fn, mirroring the routing order: the best exclusive
// instance with capacity, else the time-sharing binding's queue, else
// the scale-up path (a fresh instance plus the pending backlog ahead).
func (p *Platform) completionEstimate(fn *Function) float64 {
	now := p.eng.Now()
	best := math.Inf(1)
	for _, inst := range fn.instances {
		if !inst.hasCapacity() {
			continue
		}
		wait := inst.loadEndsAt - now
		if wait < 0 {
			wait = 0
		}
		est := wait + float64(inst.outstanding)*inst.plan.Bottleneck + inst.plan.Latency
		if est < best {
			best = est
		}
	}
	if b := fn.ts; b != nil && b.outstanding < b.capacity {
		ss := b.shared
		est := ss.queuedWork + ss.servingWork + b.estLoad() + b.execOn()
		if est < best {
			best = est
		}
	}
	if !math.IsInf(best, 1) {
		return best
	}
	// Scale-up path: a new instance must load and then chew through
	// the backlog ahead of this request. Optimistic about parallelism
	// (scale-up launches up to 4 instances a pass).
	exec := fn.bestExec()
	load := keepalive.ColdStartTime(fn.memGB)
	for _, last := range fn.lastNodeUse {
		if now-last < p.opts.KeepAlive {
			load = keepalive.WarmLoadTime(fn.memGB)
			break
		}
	}
	ahead := len(fn.pending)
	par := 4 * fn.bestCapacity(queueSlack)
	waves := float64(ahead / par)
	return load + exec + waves*exec
}

// bestExec is the function's fastest monolithic service time (its
// cheapest plan latency when it cannot run monolithically anywhere).
func (fn *Function) bestExec() float64 {
	if math.IsInf(fn.fastestMono, 1) {
		return fn.spec.SLO
	}
	return fn.fastestMono
}
