package platform

import (
	"fmt"
	"math"

	"fluidfaas/internal/keepalive"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/overload"
)

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
	if est, late := p.completionEstimate(fn, rq.deadline); late {
		// Rejections are still demand: autoscaling must see them, or a
		// cold function whose whole first wave fast-fails never scales
		// up and rejects forever.
		fn.rejectDemand++
		p.kickScaleUp()
		// Only subscribers and the decision recorder read the detail.
		detail := ""
		if len(p.subs) > 0 || p.decOn() {
			detail = fmt.Sprintf("estimated completion %.3fs past deadline", est)
		}
		p.reject(rq, detail, func() []decisions.KV {
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
func (p *Platform) reject(rq *request, detail string, inputs func() []decisions.KV) {
	p.finishUnserved(rq, EvReject, detail, func() decisions.Record {
		return decisions.Record{
			Kind: decisions.KindReject, Rule: "deadline-estimate", Outcome: detail,
			Inputs: inputs(),
		}
	})
}

// late is the admission test: a request due at deadline whose estimated
// completion is est seconds from now would miss it.
func (p *Platform) late(est, deadline float64) bool {
	return p.eng.Now()+est*overload.AdmissionSlack > deadline
}

// completionEstimate is the optimistic end-to-end estimate for a new
// request of fn, mirroring the routing order: the best exclusive
// instance with capacity, else the time-sharing binding's queue, else
// the scale-up path (a fresh instance plus the pending backlog ahead).
//
// It returns the estimate and whether it is late for deadline, and it
// stops at the first candidate (open instances in set order, then the
// binding) that is not late: the estimate is then that candidate's, not
// the minimum. late is monotone in
// est, so the minimum passes exactly when some candidate does, and only
// a rejection, which reads est, needs the full minimum or the scale-up
// path.
func (p *Platform) completionEstimate(fn *Function, deadline float64) (float64, bool) {
	now := p.eng.Now()
	best := math.Inf(1)
	for i := fn.open.next(0); i >= 0; i = fn.open.next(i + 1) {
		inst := fn.instances[i]
		wait := inst.loadEndsAt - now
		if wait < 0 {
			wait = 0
		}
		est := wait + float64(len(inst.inflight))*inst.plan.Bottleneck + inst.plan.Latency
		if !p.late(est, deadline) {
			return est, false
		}
		if est < best {
			best = est
		}
	}
	if b := fn.ts; b != nil && b.outstanding < b.capacity {
		ss := b.shared
		est := ss.queuedWork + ss.servingWork + b.estLoad() + b.execOn()
		if !p.late(est, deadline) {
			return est, false
		}
		if est < best {
			best = est
		}
	}
	if !math.IsInf(best, 1) {
		return best, true
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
	ahead := fn.pending.Len()
	par := 4 * fn.bestCapacity(queueSlack)
	waves := float64(ahead / par)
	est := load + exec + waves*exec
	return est, p.late(est, deadline)
}

// bestExec is the function's fastest monolithic service time (its
// cheapest plan latency when it cannot run monolithically anywhere).
func (fn *Function) bestExec() float64 {
	if math.IsInf(fn.fastestMono, 1) {
		return fn.spec.SLO
	}
	return fn.fastestMono
}
